(** Shared execution state of one plan run: configuration, the
    normal/fallback mode switch, and operator-level counters.

    One [Context.t] is created per plan execution and threaded through
    every operator. The [mode] reference implements the paper's fallback
    protocol (Sec. 5.4.6): when XAssembly's speculative store [S]
    outgrows [memory_budget], it flips the mode once, and every operator
    checks it on its next call — XStep stops honouring cluster borders,
    XScan restarts as the identity, XAssembly degenerates to duplicate
    elimination. *)

type serve_policy = Serve_min_pid | Serve_cost
(** How XSchedule picks the next cluster to serve from [Q] when no agenda
    is in progress: the historical deterministic minimum page id, or the
    paper's cost-sensitive weighting — queued instance count divided by
    the estimated access cost from the current head position (min-pid as
    tie-break). *)

val serve_policy_of_string : string -> serve_policy option
val serve_policy_to_string : serve_policy -> string

type config = {
  k : int;
      (** Desired minimum size of XSchedule's queue [Q] — "enough
          scheduling alternatives for the asynchronous I/O subsystem"
          (paper default: 100). *)
  speculative : bool;
      (** Whether XSchedule generates left-incomplete instances to avoid
          revisiting clusters (Sec. 5.4.4). XScan always speculates. *)
  memory_budget : int;
      (** Maximum number of instances held in [S] before the run falls
          back to the simple method. *)
  dedup_intermediate : bool;
      (** Simple plans only: eliminate duplicates after every step rather
          than only at the end (the [14]-style refinement the paper
          cites). *)
  validate : bool;
      (** Run the {!Invariant} post-run checks after every plan
          execution: no pinned frames, empty scheduler queues, consistent
          I/O scheduler structures, counter conservation. Off by default
          (it adds bookkeeping passes); the differential harness and the
          test suite switch it on. *)
  coalesce_window : int;
      (** Largest contiguous run of pending pages serviced as one
          vectored read (see {!Xnav_storage.Io_scheduler.complete_batch}).
          [0] disables batching — every request is serviced one page at
          a time, the historical behaviour. *)
  serve_policy : serve_policy;
  scan_threshold : float;
      (** Visited-region density (clusters visited ÷ span of the visited
          page range) above which XSchedule opens a bounded sequential
          scan window just past its visited frontier instead of pure
          demand scheduling. [<= 0.0] disables the hybrid. *)
  fused : bool;
      (** Evaluate reordered plans' step chains with the fused automaton
          ({!Fused}) instead of the per-step XStep iterator chain. Off
          reproduces the historical per-step execution (and I/O trace)
          exactly. Both this and the plan's own [fused] knob must be on
          for the fused operator to run. *)
  result_cache : bool;
      (** Consult the process-wide {!Result_cache} before planning a
          root-context run, and install the answer after a miss. In the
          workload engine the same knob additionally enables cross-client
          shared-scan dedup. Off by default: library callers get the
          historical from-scratch execution (and I/O trace) byte for
          byte; the [xnav] front end and the bench harness enable it. *)
  scan_resistant : bool;
      (** Run the store's buffer pool under the 2Q scan-resistant
          eviction policy
          ({!Xnav_storage.Buffer_manager.set_scan_resistant}): freshly
          read pages sit in a probationary queue and only a re-reference
          promotes them to the protected main queue, so a co-tenant's
          sequential scan cannot flush a hot working set. Off by
          default: victim choices reproduce the historical exact LRU
          byte for byte. Applied to the pool by {!Exec.run} /
          {!Exec.prepare} (and through them the workload and shard
          engines). *)
}

val default_config : config
(** [k = 100], speculation on, a 1M-instance budget, intermediate
    duplicate elimination on; coalescing window 16, cost-sensitive serve,
    scan threshold 0.5, fused chains on, result cache off, scan-resistant
    eviction off. *)

val set_fused : bool -> config -> config
(** [set_fused false config] disables the fused automaton — reordered
    plans fall back to the historical XStep iterator chain. *)

val set_result_cache : bool -> config -> config
(** [set_result_cache true config] enables the repeat-traffic front
    door: {!Result_cache} consultation in {!Exec.run} (and, through it,
    {!Query_exec}) plus shared-scan dedup in the workload engine. *)

val set_scan_resistant : bool -> config -> config
(** [set_scan_resistant true config] switches the buffer pool to the 2Q
    scan-resistant eviction policy for runs under this config. *)

type mode = Normal | Fallback

include module type of struct
  include Metric.Record
end
(** The run's metrics record ({!Metric}), re-exported with its labels so
    operators write [c.Context.instances <- c.Context.instances + 1]. *)

type t = {
  store : Xnav_store.Store.t;
  config : config;
  mutable mode : mode;
  counters : metrics;  (** Fresh from {!Metric.create}. *)
  mutable trace : (string -> unit) option;
      (** Optional operator-event sink (cluster visits, crossings,
          results); used to render the paper's Example 6/7 traces. *)
}

val create : ?config:config -> Xnav_store.Store.t -> t

val enter_fallback : t -> unit
(** Switch to fallback mode (idempotent; counted once in [fallbacks],
    and sets [fell_back]). *)

val fallback : t -> bool

val tracing : t -> bool
(** Whether a trace sink is installed. Hot paths test this before
    calling {!emit} so that building the thunk itself (a closure
    allocation per event) is skipped when tracing is off. *)

val emit : t -> (unit -> string) -> unit
(** Send an event to the trace sink, if any (the thunk is only forced
    when tracing is on). *)

(** Plan execution: builds the operator pipeline for a plan, drains it,
    and reports results plus the full cost breakdown.

    Timing model: [io_time] is the simulated disk clock consumed by the
    run (deterministic, from the {!Xnav_storage.Disk} cost model) and
    [cpu_time] is measured process CPU time; [total_time] is their sum.
    This mirrors the paper's Table 3, which reports total and CPU time
    separately — with the difference that our I/O seconds come from a
    reproducible simulator rather than a wall clock. *)

include module type of struct
  include Metric.Record
end
(** The run's metrics: the record of its {!Context.t}, one field per
    entry of {!Metric.all}. Readers write [m.Exec.page_reads]. *)

val swizzle_hit_rate : metrics -> float
(** [swizzle_hits / (swizzle_hits + swizzle_misses)], 0 when no view was
    touched (e.g. the Simple plan, which never swizzles). *)

type result = {
  nodes : Xnav_store.Store.info list;
      (** Result nodes, duplicate-free; in document order unless
          [ordered:false]. *)
  count : int;
  metrics : metrics;
}

val run :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  ?ordered:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  result
(** [run store path plan] evaluates [path] from [contexts] (default: the
    document root). [ordered] (default [true]) re-establishes document
    order by sorting on ordpaths (Sec. 5.5) — pass [false] for
    aggregates like [count()] where order is irrelevant.

    With [config.result_cache] set, a root-context run first consults
    {!Result_cache} (keyed on the path text, validated against the
    store's mutation stamp): a hit skips planning and I/O entirely and
    reports [cache_hits = 1] with every other metric zero except
    [cpu_time] and [total_time]; a miss executes normally and installs
    its answer. {!Query_exec} inherits this per trunk segment. Non-root
    contexts always execute.

    @raise Invalid_argument if [path] is empty, or a reordered plan is
    requested for a path with non-downward axes.

    The buffer pool is left warm; callers wanting the paper's cold-cache
    regime reset the buffer and disk clock first (see {!cold_run}). *)

type stream
(** A prepared, lazily evaluated plan: results are pulled one at a time.
    Streams make interleaved (concurrent) execution possible — the
    workload engine ([Xnav_workload.Workload]) rotates many of them over
    one buffer pool. *)

val prepare :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  stream
(** Build the operator pipeline without draining it. The stream shares
    the store's buffer pool and asynchronous I/O queue with any other
    live stream — concurrent streams' requests merge in the scheduler,
    which is exactly the multi-query benefit the paper's outlook
    anticipates. *)

val stream_next : stream -> Xnav_store.Store.info option
(** The next result node (duplicate-free for reordered plans; the Simple
    plan may repeat nodes unless intermediate dedup is on — {!run}
    deduplicates at the end). [None] is final. *)

val stream_fell_back : stream -> bool

val stream_indexed : stream -> bool
(** Whether the stream seeds from the path partition (an index plan
    that did not degrade to the schedule shape). Its seeds come from the
    partition's entry lists, not from page reads, so its answer depends
    on every mutation after {!prepare}, not only on the clusters it
    touches. *)

val stream_ctx : stream -> Context.t
(** The stream's execution context — counters (including the
    workload-fairness [served_ticks]/[starved_ticks]) accumulate here as
    the stream is pulled. *)

val stream_demand : stream -> int list
(** The clusters the stream's XSchedule operator currently has queued
    items for (unordered; [[]] for plans without an XSchedule). The
    workload scheduler boosts a stream whose demand overlaps work that is
    already cheap: resident pages, another stream's open scan window, or
    a coalescible pending run. *)

val stream_scan_window : stream -> (int * int) option
(** The stream's active adaptive scan window as inclusive page bounds,
    if its XSchedule has one open. *)

val stream_violations : ?results:int -> stream -> string list
(** {!Invariant.post_run} over the stream's context and I/O operator.
    Only meaningful once the whole buffer pool is quiescent (every
    concurrent stream finished or abandoned) — the buffer-level checks
    are global. *)

val stream_abandon : stream -> unit
(** Tear the stream's I/O operator down (release its cluster pin,
    cancel its outstanding I/O, drop queued work). Use when a
    post-fallback stream raised {!Xnav_storage.Buffer_manager.Buffer_full}
    — its results must then be recomputed with the simple method. *)

val cold_run :
  ?config:Context.config ->
  ?contexts:Xnav_store.Node_id.t list ->
  ?trace:(string -> unit) ->
  ?ordered:bool ->
  Xnav_store.Store.t ->
  Xnav_xpath.Path.t ->
  Plan.t ->
  result
(** {!run} preceded by a buffer reset and disk-clock reset — each
    measurement starts cold, as in the paper's setup (Sec. 6.1). *)

val pp_metrics : Format.formatter -> metrics -> unit
(** {!Metric.pp}: every registered metric, one line per layer. *)

(** Per-run metrics: one record, one registry.

    Every number a plan run reports — operator counters, the disk, buffer
    and swizzle deltas, the simulated I/O and measured CPU seconds, the
    fallback flag — is a field of {!metrics}, and each field has exactly
    one entry in {!all} giving its name, owning layer, aggregation kind
    and documentation. Operators increment the fields directly
    ([c.Context.instances <- c.Context.instances + 1]); everything that
    treats the metrics as a set — zeroing, aggregation, printing, the
    bench JSON row, the {!Invariant} sweep, the before/after deltas of
    {!Exec.run} — iterates over {!all}.

    Adding a metric is one field in {!Record} (plus its zero in {!create})
    and one entry in {!all}.

    This module has no [.mli]: its whole content is interface, and an
    interface file would restate the record field by field. *)

module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Store = Xnav_store.Store

(** The record sits in its own submodule so that {!Context} and {!Exec}
    can re-export its labels ([c.Context.instances],
    [m.Exec.page_reads]) with one [include] each instead of restating
    the fields. *)
module Record = struct
  type metrics = {
    mutable io_time : float;
    mutable cpu_time : float;
    mutable total_time : float;
    mutable page_reads : int;
    mutable sequential_reads : int;
    mutable random_reads : int;
    mutable seek_distance : int;
    mutable batched_reads : int;
    mutable batch_pages : int;
    mutable coalesce_runs : int;
    mutable buffer_lookups : int;
    mutable buffer_hits : int;
    mutable buffer_misses : int;
    mutable async_reads : int;
    mutable scan_resist_hits : int;
    mutable swizzle_hits : int;
    mutable swizzle_misses : int;
    mutable instances : int;
    mutable crossings : int;
    mutable specs_created : int;
    mutable specs_stored : int;
    mutable specs_resolved : int;
    mutable s_peak : int;
    mutable q_peak : int;
    mutable q_enqueued : int;
    mutable q_served : int;
    mutable q_dropped : int;
    mutable clusters_visited : int;
    mutable scan_windows : int;
    mutable scan_window_pages : int;
    mutable results_emitted : int;
    mutable dedup_hits : int;
    mutable prefetch_refusals : int;
    mutable index_entries : int;
    mutable index_clusters : int;
    mutable index_residuals : int;
    mutable fused_transitions : int;
    mutable fused_states : int;
    mutable fallbacks : int;
    mutable fell_back : bool;
    mutable cache_hits : int;
    mutable cache_misses : int;
    mutable cache_evictions : int;
    mutable shared_demand : int;
    mutable served_ticks : int;
    mutable starved_ticks : int;
    mutable writer_commits : int;
    mutable latch_waits : int;
    mutable snapshot_retries : int;
    mutable cluster_stales : int;
  }
end

include Record

type t = metrics

(** A fresh record, every metric zero. *)
let create () =
  {
    io_time = 0.0;
    cpu_time = 0.0;
    total_time = 0.0;
    page_reads = 0;
    sequential_reads = 0;
    random_reads = 0;
    seek_distance = 0;
    batched_reads = 0;
    batch_pages = 0;
    coalesce_runs = 0;
    buffer_lookups = 0;
    buffer_hits = 0;
    buffer_misses = 0;
    async_reads = 0;
    scan_resist_hits = 0;
    swizzle_hits = 0;
    swizzle_misses = 0;
    instances = 0;
    crossings = 0;
    specs_created = 0;
    specs_stored = 0;
    specs_resolved = 0;
    s_peak = 0;
    q_peak = 0;
    q_enqueued = 0;
    q_served = 0;
    q_dropped = 0;
    clusters_visited = 0;
    scan_windows = 0;
    scan_window_pages = 0;
    results_emitted = 0;
    dedup_hits = 0;
    prefetch_refusals = 0;
    index_entries = 0;
    index_clusters = 0;
    index_residuals = 0;
    fused_transitions = 0;
    fused_states = 0;
    fallbacks = 0;
    fell_back = false;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    shared_demand = 0;
    served_ticks = 0;
    starved_ticks = 0;
    writer_commits = 0;
    latch_waits = 0;
    snapshot_retries = 0;
    cluster_stales = 0;
  }

(** The layer a metric belongs to: the operator pipeline, the swizzled
    store views, the buffer pool, the disk model, the result-cache front
    door, or the workload engine. *)
type layer = Exec | Store | Buffer | Disk | Cache | Workload

(** Every layer, in the order {!pp} prints them. *)
let layers = [ Exec; Store; Buffer; Disk; Cache; Workload ]

let layer_name = function
  | Exec -> "exec"
  | Store -> "store"
  | Buffer -> "buffer"
  | Disk -> "disk"
  | Cache -> "cache"
  | Workload -> "workload"

(** How runs aggregate ({!add}): event counts and seconds add, high-water
    marks take the maximum, flags stick once set. *)
type kind = Sum | Peak | Flag

(** A configuration switch a metric depends on: with it off the metric
    must stay 0, which {!Invariant} checks. [Scan_window] is on when
    [scan_threshold > 0]; [Swizzling] is the store's decode cache. *)
type gate = Fused | Result_cache | Scan_resistant | Scan_window | Swizzling

let gate_name = function
  | Fused -> "fused evaluation"
  | Result_cache -> "the result cache"
  | Scan_resistant -> "scan-resistant eviction"
  | Scan_window -> "the scan-window hybrid"
  | Swizzling -> "swizzling"

(** Cumulative counters of the layers below a run, read before and after
    it; a metric with a [probe] reports the difference. *)
type reading = { disk : Disk.stats; buffer : Buffer_manager.stats; swizzle : int * int }

let read store =
  let buffer = Store.buffer store in
  {
    disk = Disk.stats (Buffer_manager.disk buffer);
    buffer = Buffer_manager.stats buffer;
    swizzle = Store.swizzle_stats store;
  }

(** Typed get/set access to the metric's record field. *)
type field =
  | Int of (t -> int) * (t -> int -> unit)
  | Float of (t -> float) * (t -> float -> unit)
  | Bool of (t -> bool) * (t -> bool -> unit)

type entry = {
  name : string;  (** The record label; also the bench JSON key. *)
  layer : layer;
  kind : kind;
  doc : string;
  gate : gate option;
  probe : (reading -> int) option;
      (** Set for metrics measured as a before/after delta of a lower
          layer's cumulative counter rather than incremented in place. *)
  field : field;
}

let all =
  let count ?(kind = Sum) ?gate ?probe layer name doc get set =
    { name; layer; kind; doc; gate; probe; field = Int (get, set) }
  in
  let disk name doc get set stat = count Disk name doc get set ~probe:(fun r -> stat r.disk) in
  let buffer ?gate name doc get set stat =
    count ?gate Buffer name doc get set ~probe:(fun r -> stat r.buffer)
  in
  let seconds layer name doc get set =
    { name; layer; kind = Sum; doc; gate = None; probe = None; field = Float (get, set) }
  in
  let flag layer name doc get set =
    { name; layer; kind = Flag; doc; gate = None; probe = None; field = Bool (get, set) }
  in
  [
    seconds Disk "io_time" "Simulated disk seconds the run consumed (deterministic)."
      (fun m -> m.io_time) (fun m v -> m.io_time <- v);
    seconds Exec "cpu_time" "Measured process CPU seconds of the run."
      (fun m -> m.cpu_time) (fun m v -> m.cpu_time <- v);
    seconds Exec "total_time" "io_time + cpu_time."
      (fun m -> m.total_time) (fun m v -> m.total_time <- v);
    disk "page_reads" "Pages read from disk."
      (fun m -> m.page_reads) (fun m v -> m.page_reads <- v) (fun s -> s.Disk.reads);
    disk "sequential_reads" "Reads served at the head position or the next page."
      (fun m -> m.sequential_reads) (fun m v -> m.sequential_reads <- v)
      (fun s -> s.Disk.sequential_reads);
    disk "random_reads" "Reads that needed a seek."
      (fun m -> m.random_reads) (fun m v -> m.random_reads <- v) (fun s -> s.Disk.random_reads);
    disk "seek_distance" "Sum of page distances over random reads."
      (fun m -> m.seek_distance) (fun m v -> m.seek_distance <- v) (fun s -> s.Disk.seek_distance);
    disk "batched_reads" "Vectored multi-page reads issued."
      (fun m -> m.batched_reads) (fun m v -> m.batched_reads <- v) (fun s -> s.Disk.batched_reads);
    disk "batch_pages" "Pages delivered through vectored reads."
      (fun m -> m.batch_pages) (fun m v -> m.batch_pages <- v) (fun s -> s.Disk.batch_pages);
    disk "coalesce_runs" "Vectored reads that carried two or more pages."
      (fun m -> m.coalesce_runs) (fun m v -> m.coalesce_runs <- v) (fun s -> s.Disk.coalesce_runs);
    buffer "buffer_lookups" "Buffer-pool hash probes (the swizzling cost proxy)."
      (fun m -> m.buffer_lookups) (fun m v -> m.buffer_lookups <- v)
      (fun s -> s.Buffer_manager.lookups);
    buffer "buffer_hits" "Fixes served from a resident frame."
      (fun m -> m.buffer_hits) (fun m v -> m.buffer_hits <- v) (fun s -> s.Buffer_manager.hits);
    buffer "buffer_misses" "Synchronous reads caused by a fix."
      (fun m -> m.buffer_misses) (fun m v -> m.buffer_misses <- v)
      (fun s -> s.Buffer_manager.misses);
    buffer "async_reads" "Pages installed by the asynchronous I/O queue."
      (fun m -> m.async_reads) (fun m v -> m.async_reads <- v)
      (fun s -> s.Buffer_manager.async_reads);
    buffer ~gate:Scan_resistant "scan_resist_hits" "Buffer hits served from the 2Q main queue."
      (fun m -> m.scan_resist_hits) (fun m v -> m.scan_resist_hits <- v)
      (fun s -> s.Buffer_manager.scan_resist_hits);
    count Store ~gate:Swizzling "swizzle_hits" "Decoded-record cache hits in swizzled views."
      ~probe:(fun r -> fst r.swizzle)
      (fun m -> m.swizzle_hits) (fun m v -> m.swizzle_hits <- v);
    count Store "swizzle_misses" "First decodes of a slot (and post-update refills)."
      ~probe:(fun r -> snd r.swizzle)
      (fun m -> m.swizzle_misses) (fun m v -> m.swizzle_misses <- v);
    count Exec "instances" "Path instances created."
      (fun m -> m.instances) (fun m v -> m.instances <- v);
    count Exec "crossings" "Inter-cluster edges encountered."
      (fun m -> m.crossings) (fun m v -> m.crossings <- v);
    count Exec "specs_created"
      "Speculative seed instances generated at Up borders; each can fan out into several stored \
       speculations."
      (fun m -> m.specs_created) (fun m v -> m.specs_created <- v);
    count Exec "specs_stored" "Speculations that entered XAssembly's store S."
      (fun m -> m.specs_stored) (fun m v -> m.specs_stored <- v);
    count Exec "specs_resolved" "Speculations whose left end became reachable."
      (fun m -> m.specs_resolved) (fun m v -> m.specs_resolved <- v);
    count Exec ~kind:Peak "s_peak" "High-water mark of |S|."
      (fun m -> m.s_peak) (fun m v -> m.s_peak <- v);
    count Exec ~kind:Peak "q_peak" "High-water mark of XSchedule's queue |Q|."
      (fun m -> m.q_peak) (fun m v -> m.q_peak <- v);
    count Exec "q_enqueued" "Items that entered XSchedule's queue Q."
      (fun m -> m.q_enqueued) (fun m v -> m.q_enqueued <- v);
    count Exec "q_served" "Items drained from Q into an agenda."
      (fun m -> m.q_served) (fun m v -> m.q_served <- v);
    count Exec "q_dropped"
      "Items discarded when a pipeline was abandoned for a full Simple restart (Xschedule.abandon)."
      (fun m -> m.q_dropped) (fun m v -> m.q_dropped <- v);
    count Exec "clusters_visited" "Clusters made current by an I/O operator."
      (fun m -> m.clusters_visited) (fun m v -> m.clusters_visited <- v);
    count Exec ~gate:Scan_window "scan_windows" "Adaptive scan windows XSchedule entered."
      (fun m -> m.scan_windows) (fun m v -> m.scan_windows <- v);
    count Exec ~gate:Scan_window "scan_window_pages" "Pages swept inside those windows."
      (fun m -> m.scan_window_pages) (fun m v -> m.scan_window_pages <- v);
    count Exec "results_emitted" "Distinct result nodes emitted by XAssembly."
      (fun m -> m.results_emitted) (fun m v -> m.results_emitted <- v);
    count Exec "dedup_hits" "Duplicate emissions suppressed (XAssembly and UnnestMap)."
      (fun m -> m.dedup_hits) (fun m v -> m.dedup_hits <- v);
    count Exec "prefetch_refusals"
      "Cluster prefetches the buffer refused (every frame pinned); XSchedule retries them."
      (fun m -> m.prefetch_refusals) (fun m v -> m.prefetch_refusals <- v);
    count Exec "index_entries"
      "Instances seeded from the path partition's entry lists; 0 for non-index plans."
      (fun m -> m.index_entries) (fun m v -> m.index_entries <- v);
    count Exec "index_clusters" "Clusters the XIndex operator pinned to materialise seeds."
      (fun m -> m.index_clusters) (fun m v -> m.index_clusters <- v);
    count Exec "index_residuals" "Border continuations served back through XIndex."
      (fun m -> m.index_residuals) (fun m v -> m.index_residuals <- v);
    count Exec ~gate:Fused "fused_transitions"
      "Automaton transitions the fused operator processed (cursor emissions consumed)."
      (fun m -> m.fused_transitions) (fun m v -> m.fused_transitions <- v);
    count Exec ~gate:Fused "fused_states"
      "Work-stack frames the fused operator pushed: one per partial match that opens the next \
       step's enumeration."
      (fun m -> m.fused_states) (fun m v -> m.fused_states <- v);
    count Exec "fallbacks" "Switches to fallback mode (at most one per context)."
      (fun m -> m.fallbacks) (fun m v -> m.fallbacks <- v);
    flag Exec "fell_back" "Whether the run fell back to the simple method."
      (fun m -> m.fell_back) (fun m v -> m.fell_back <- v);
    count Cache ~gate:Result_cache "cache_hits"
      "1 when the run was answered from the result cache, without planning or I/O."
      (fun m -> m.cache_hits) (fun m v -> m.cache_hits <- v);
    count Cache ~gate:Result_cache "cache_misses"
      "1 when the run was cacheable but executed (no entry, or a stale one) and installed its \
       answer."
      (fun m -> m.cache_misses) (fun m v -> m.cache_misses <- v);
    count Cache ~gate:Result_cache "cache_evictions" "LRU evictions the installation caused."
      (fun m -> m.cache_evictions) (fun m v -> m.cache_evictions <- v);
    count Cache ~gate:Result_cache "shared_demand"
      "1 when a workload job was deduped into another client's identical in-flight scan."
      (fun m -> m.shared_demand) (fun m v -> m.shared_demand <- v);
    count Workload "served_ticks"
      "Scheduler turns in which this job's stream was the one chosen; 0 for stand-alone runs."
      (fun m -> m.served_ticks) (fun m v -> m.served_ticks <- v);
    count Workload "starved_ticks"
      "Scheduler turns this job sat runnable while another was chosen; 0 for stand-alone runs."
      (fun m -> m.starved_ticks) (fun m v -> m.starved_ticks <- v);
    count Workload "writer_commits"
      "Update operations (inserts, deletes) a writer job committed; 0 for read jobs."
      (fun m -> m.writer_commits) (fun m v -> m.writer_commits <- v);
    count Workload "latch_waits"
      "Turns a writer spent blocked on another writer's cluster latch; 0 for read jobs."
      (fun m -> m.latch_waits) (fun m v -> m.latch_waits <- v);
    count Workload "snapshot_retries"
      "Reader restarts forced by a commit into an already-observed cluster (the snapshot rule)."
      (fun m -> m.snapshot_retries) (fun m v -> m.snapshot_retries <- v);
    count Workload "cluster_stales"
      "Result-cache entries a writer's commits dropped: their footprint met the write set."
      (fun m -> m.cluster_stales) (fun m v -> m.cluster_stales <- v);
  ]

(** Whether [e]'s value in [m] is zero (or [false]). *)
let is_zero e m =
  match e.field with
  | Int (get, _) -> get m = 0
  | Float (get, _) -> get m = 0.0
  | Bool (get, _) -> not (get m)

(** Set every probed metric of [m] to its change from [before] to
    [after]. *)
let set_deltas m ~before ~after =
  List.iter
    (fun e ->
      match (e.probe, e.field) with
      | Some probe, Int (_, set) -> set m (probe after - probe before)
      | _ -> ())
    all

(** [add a b] is a fresh record aggregating [a] and [b] by each metric's
    kind. *)
let add a b =
  let m = create () in
  List.iter
    (fun e ->
      match (e.field, e.kind) with
      | Int (get, set), Peak -> set m (max (get a) (get b))
      | Int (get, set), _ -> set m (get a + get b)
      | Float (get, set), _ -> set m (get a +. get b)
      | Bool (get, set), _ -> set m (get a || get b))
    all;
  m

(** One line per layer: [layer: name value name value ...]. *)
let pp ppf m =
  let pp_entry ppf e =
    match e.field with
    | Int (get, _) -> Format.fprintf ppf "@ %s %d" e.name (get m)
    | Float (get, _) -> Format.fprintf ppf "@ %s %.4fs" e.name (get m)
    | Bool (get, _) -> Format.fprintf ppf "@ %s %b" e.name (get m)
  in
  let pp_layer ppf layer =
    Format.fprintf ppf "@[<hov 2>%s:" (layer_name layer);
    List.iter (fun e -> if e.layer = layer then pp_entry ppf e) all;
    Format.fprintf ppf "@]"
  in
  Format.fprintf ppf "@[<v>%a@]" (Format.pp_print_list pp_layer) layers

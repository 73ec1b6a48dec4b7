(** Concurrent multi-query workload engine.

    The session layer the paper's outlook anticipates: N queries admitted
    over shared {!Xnav_storage.Buffer_manager} /
    {!Xnav_storage.Io_scheduler} stacks, their XSchedule/XScan/Simple
    iterators interleaved by a round-robin-with-cost-credit scheduler.
    Concurrent queries' cluster requests merge in the scheduler's pending
    set, so demand from different queries coalesces into the same
    sequential runs a single XSchedule already exploits — contention
    becomes sharing.

    {2 Pools and sites}

    This module is the one lane engine. A {e pool} is one storage stack:
    a buffer manager with its disk (and simulated clock) and its I/O
    scheduler. A {e site} is one store attached to a pool; several sites
    may share a pool. {!run_sites} runs clients whose jobs address sites
    over any number of pools; {!run_clients} is the engine with one pool
    and one site, and {!Shard} is a thin caller that passes its shards'
    pools and its tenants' stores. Each pool has its own admission
    queue, rotation and clock; the engine picks a pool per turn (see
    {e Scheduling}), so pools stay independent stacks under one
    scheduler.

    {2 Scheduling}

    Each turn first picks a pool: round-robin over the pools with
    admitted lanes, under a {e cross-site fairness gate}. Every site's
    {e pressure} (turns since it was last served or admitted a lane) is
    tracked, and when the worst pressure exceeds [2 * active_lanes + 4]
    turns the gate serves that site's lane directly (counted in
    {!type-result.rebalance_moves}). With one site the gate never fires:
    the site's pressure is 1 at every pick.

    Within the pool, the turn serves one query for a {e cost credit}
    (the [quantum], in simulated disk seconds): the query runs until its
    credit is spent, until it triggers a random I/O (the expensive event
    the paper's cost model penalises — the query yields immediately so
    cheaper work can run while the head is repositioned), or until it
    finishes. Queries whose queued demand is already cheap to serve — a
    demanded cluster is resident in the pool, falls inside another
    query's open scan window, or sits in a coalescible pending run
    ([pid±1] also pending) — are {e boosted} ahead of plain round-robin
    order, which is what turns cross-query contention into cross-query
    batching. Fairness is observable: the chosen query's
    [served_ticks] ({!Xnav_core.Metric}) and every other runnable
    query's (in any pool) [starved_ticks] advance each turn.

    {2 Admission}

    Admission is per pool. A query is only admitted while its worst-case
    steady pin demand cannot wedge its pool (generalising the capacity-1
    release-before-acquire fix): every plan holds at most one steady pin
    (XSchedule's current cluster; Simple/XScan navigation pins are
    transient) plus one frame of headroom for the page being entered, so
    [n] concurrent queries need [2n] frames and the next query is
    admitted iff [2 (n + 1) <= capacity] — except that a query is
    {e always} admitted when it would run alone, which keeps tiny pools
    (capacity 1) live by degrading to serial execution. Batch installs
    can still transiently overcommit a small pool; that cannot deadlock,
    because a wedged query raises
    {!Xnav_storage.Buffer_manager.Buffer_full}, is torn down through
    {!Xnav_storage.Buffer_manager.abort_async} and is recomputed serially
    once the pool is quiescent (status {!constructor:Recovered}).

    {2 The repeat-traffic front door}

    With {!Xnav_core.Context.config.result_cache} set the engine serves
    repeated statements without re-executing them, at two levels.
    {e Level 1}: admission consults the process-wide
    {!Xnav_core.Result_cache} — a hit completes the job instantly (no
    lane, no planning, no I/O), and every completed stream job installs
    its answer for the next identical statement. Entries key on the
    site store's uid and content digest, so co-located sites never serve
    each other's answers. {e Level 2}: if an identical statement is
    already in flight {e on the same site}, the new job's pending
    cluster demand would duplicate work the pool is about to do anyway —
    it attaches as a {e follower} of the in-flight {e leader} lane and
    receives the leader's answer the instant the shared scan completes.
    A follower belongs to its leader's site, so per-site fairness
    accounting is unaffected. Followers pin nothing and bypass
    admission; fairness credits ([served_ticks]) are charged to all
    sharers each time the leader is served, and each deduped job reports
    [shared_demand] ({!Xnav_core.Metric}). Jobs with a [timeout]
    never share (a follower's fate is its leader's). With the knob off
    (the default) both levels are inert and the engine reproduces the
    historical execution byte for byte.

    {2 Writers: online updates under concurrent reads}

    A spec whose [ops] list is non-empty is a {e writer job}: instead of
    evaluating a path it applies in-place updates
    ({!Xnav_store.Update.insert_element} / [delete_subtree]) against the
    same shared store, interleaved turn-by-turn with the readers. Three
    rules keep the mix coherent:

    - {e Cluster latches (writer–writer)}: each op declares its target
      cluster; a writer latches it exclusively for the op's duration
      (acquire one turn, commit the next — [latch_waits] counts blocked
      turns). At acquire time the target is re-validated; an op whose
      target a concurrent delete removed is skipped. Clusters an op
      escalates into mid-commit (overflow allocation, purged subtree
      pages) are not latched — the commit is atomic within the turn, so
      nothing else observes the escalation.
    - {e Snapshot reads (writer–reader)}: readers are latch-free. A
      stream records every cluster it observes and the mutation stamp it
      started under; a commit into an observed cluster
      ({!Xnav_store.Store.page_stamp} exceeding the snapshot) forces the
      stream to restart from scratch under a fresh stamp
      ([snapshot_retries]). Commits it never observed are invisible to
      it — a running query always sees a single consistent snapshot. A
      stream seeded from the path partition
      ({!Xnav_core.Exec.stream_indexed}) reads its seeds from no page,
      so it restarts on {e any} commit after its snapshot.
    - {e Cluster-granular invalidation}: a commit stales only the
      result-cache entries whose recorded cluster footprint intersects
      its write set ({!Xnav_core.Result_cache.stale_clusters}, counted
      as [cluster_stales]), the decoded views of the written clusters,
      and the path-partition classes they cover — repeat statements over
      untouched paths keep hitting the cache and the index across
      writer traffic.

    Each job's [finish_commit] records how many commits (engine-wide)
    preceded its completion, and [result.commit_log] lists the committed
    ops in serial order — together they make the concurrent schedule
    replayable: evaluating each reader's statement on a twin store after
    applying the first [finish_commit] ops must reproduce its answer.
    The log carries no site, so writers belong on single-site runs
    ({!Shard} rejects them).

    {2 Clocks}

    All latencies ([submitted]/[started]/[finished], and the derived
    [latency] and [pin_wait]) are measured on the simulated clock of the
    job's pool — deterministic, so percentiles are CI-stable. Process CPU time is
    reported separately at the engine level. *)

type update_op =
  | Insert_child of { parent : Xnav_store.Node_id.t; tag : Xnav_xml.Tag.t }
      (** Append a new last child under [parent]. *)
  | Delete_subtree of Xnav_store.Node_id.t
      (** Remove the subtree rooted at this (non-root) node. *)

type spec = {
  label : string;
  path : Xnav_xpath.Path.t;
  plan : Xnav_core.Plan.t;
  timeout : float option;
      (** Abort the job once it has been running (admitted) for this many
          simulated seconds. The abort unwinds through
          {!Xnav_storage.Buffer_manager.abort_async}; a timeout of [0.0]
          aborts before the first scheduling turn. *)
  ops : update_op list;
      (** Non-empty makes this a writer job: [path]/[plan] are unused, the
          ops are applied in order (two turns each), and the job reports
          no nodes. [[]] is a plain read job. *)
}

type status =
  | Completed  (** Ran to the end of its stream. *)
  | Timed_out  (** Aborted at its deadline; [nodes] is empty. *)
  | Recovered
      (** The stream raised [Buffer_full] under pool contention and was
          abandoned; the answer was recomputed serially with the Simple
          plan once the pool drained, so [nodes] is still correct. *)

val status_to_string : status -> string

type job = {
  job_label : string;
  client : int;
  site : int;  (** Index of the site the job ran on ([0] under {!run_clients}). *)
  status : status;
  nodes : Xnav_store.Store.info list;  (** Duplicate-free; document order if [ordered]. *)
  count : int;
  submitted : float;
  started : float;  (** Admission time; [started -. submitted] is the pin wait. *)
  finished : float;
  latency : float;  (** [finished -. submitted], simulated seconds. *)
  pin_wait : float;
  served_ticks : int;
  starved_ticks : int;
  yields : int;  (** Turns this job ended early by triggering a random I/O. *)
  boosts : int;  (** Turns this job was served ahead of round-robin order. *)
  shared : bool;
      (** The job was deduped into another client's identical in-flight
          scan (level 2) instead of executing its own. *)
  cache_hit : bool;
      (** The job was answered from the result cache at admission
          (level 1) — it never held a lane slot. *)
  writer_commits : int;  (** Ops this (writer) job committed. *)
  latch_waits : int;  (** Turns this writer spent blocked on a latch. *)
  snapshot_retries : int;
      (** Stream restarts forced by commits into observed clusters. *)
  finish_commit : int;
      (** Engine-wide commit count at this job's completion — the serial
          replay point at which its answer must be reproducible. *)
  fell_back : bool;
}

type result = {
  jobs : job list;  (** In completion order. *)
  io_time : float;
  cpu_time : float;
  total_time : float;
  page_reads : int;
  seek_distance : int;
  batched_reads : int;
  batch_pages : int;
  coalesce_runs : int;
  max_concurrent : int;  (** High-water mark of simultaneously admitted queries. *)
  turns : int;  (** Scheduling turns taken. *)
  shared_jobs : int;  (** Jobs deduped into a leader's shared scan. *)
  cache_hits : int;  (** Jobs answered from the result cache at admission. *)
  cache_misses : int;
      (** Completed stream jobs that installed their answer into the
          cache (0 with the front door off). *)
  writer_commits : int;  (** Total ops committed across all writers. *)
  latch_waits : int;
  snapshot_retries : int;
  cluster_stales : int;
      (** Result-cache entries proactively dropped because a commit's
          write set intersected their cluster footprint. *)
  commit_log : update_op list;
      (** Every committed op, in commit order — replaying this serially
          on a twin store reproduces the final document. *)
  violations : string list;
      (** Invariant violations found by the end-of-run sweep (always
          checked; a non-empty list here is an engine bug). With
          [config.validate] set the sweep additionally runs
          {!Xnav_core.Exec.stream_violations} per query and raises on any
          finding. *)
  pool_turns : int array;  (** Turns granted to each pool, by pool index. *)
  rebalance_moves : int;
      (** Turns the cross-site fairness gate overrode the balancer's
          pick (always 0 with one site). *)
}

val run_clients :
  ?config:Xnav_core.Context.config ->
  ?quantum:float ->
  ?ordered:bool ->
  cold:bool ->
  Xnav_store.Store.t ->
  spec list array ->
  result
(** [run_clients store clients] runs one closed-loop client per array
    entry: each client submits its first job at engine start and its next
    job the moment the previous one finishes (in any status), until its
    list is exhausted. [quantum] is the per-turn cost credit in simulated
    seconds (default [0.004], about one random access); [ordered]
    (default [true]) sorts each job's nodes into document order. [cold]
    resets the buffer pool and disk clock first.
    @raise Failure if any frame is left pinned at the end, or (with
    [config.validate]) on an invariant violation. *)

val run_sites :
  ?config:Xnav_core.Context.config ->
  ?quantum:float ->
  ?ordered:bool ->
  cold:bool ->
  pools:Xnav_storage.Buffer_manager.t array ->
  Xnav_store.Store.t array ->
  (int * spec) list array ->
  result
(** [run_sites ~pools sites clients] is the engine over several pools.
    Each store in [sites] must be attached to one of [pools]; a client
    job [(s, spec)] runs [spec] on [sites.(s)] and queues for admission
    at that store's pool. Jobs report their site index, [pool_turns]
    counts turns per pool, and the disk figures of the result are sums
    over the pools. Arguments and clients behave as in {!run_clients};
    [cold] resets every pool.
    @raise Invalid_argument on an empty client array, a site index out
    of range, or a store attached to none of the pools. *)

val run :
  ?config:Xnav_core.Context.config ->
  ?quantum:float ->
  ?ordered:bool ->
  cold:bool ->
  Xnav_store.Store.t ->
  spec list ->
  result
(** [run store specs] submits every spec at once, each as its own
    single-job client — maximal concurrency, subject to admission. *)

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0..100]: the nearest-rank percentile
    of [xs] (0 on an empty list). *)

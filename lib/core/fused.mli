(** The fused step-chain automaton: one operator per location path.

    The reordered plans historically evaluated a path as a chain of
    per-step {!Xstep} iterators under XAssembly — every extension paid a
    [Path_instance] allocation and a closure dispatch per step. Following
    Maneth & Nguyen (XPath whole-query optimisation), this module
    compiles the whole downward path into a single operator: an explicit
    state machine whose work-stack holds one enumeration frame per
    partially-matched step, with the per-state axis and node test read
    from a flat array.

    The chain's pull discipline is depth-first search; the fused
    operator runs the same DFS with an explicit stack, so emission order
    and every store/buffer effect are identical — in particular the I/O
    trace is byte-for-byte that of the chain (verified by the [fused]
    differential tier). Only CPU-side mechanics change: intermediate
    instances are never allocated ([instances] counts results and
    deferred crossings only), and per-step dispatch becomes an array
    index.

    Border handling is unchanged: an inter-cluster edge at step [i]
    emits a right-incomplete instance [{... s_r = i-1; n_r = R_pending}]
    without disturbing the stack, so XAssembly, XSchedule pinning,
    admission control and the workload layer see exactly the shapes they
    saw from the chain. Fallback mode is consulted each time a frame is
    pushed — the same moment the chain chose Local vs Global enumeration
    for a freshly consumed instance.

    Counters: [fused_transitions] (cursor emissions consumed) and
    [fused_states] (frames pushed) in the run's {!Metric} record. *)

val create :
  Context.t ->
  path:Xnav_xpath.Path.t ->
  (unit -> Path_instance.t option) ->
  unit ->
  Path_instance.t option
(** [create ctx ~path producer] fuses the whole chain [XStep_1 ..
    XStep_n] over [producer] (an I/O operator's [next]). Instances whose
    [s_r] is already [length path] — covering-index results, restarted
    identity feeds — and upstream-deferred crossings are forwarded
    untouched, like the chain forwarded anything not produced by the
    step below.

    @raise Invalid_argument on an empty path. *)

(** The bench JSON schema tag, in one place.

    Every [bench] JSON emitter stamps its output with this string, the
    committed [BENCH_results.json] baseline must carry it, and the test
    suite asserts that it does — so a schema bump is a one-line change
    here instead of a copy-paste hunt.

    History (see EXPERIMENTS.md for what each revision added):
    [/1] per-plan metrics, [/2] batched I/O counters, [/3] workload
    mode, [/4] structural-index counters, [/5] fused-chain counters +
    micro tier, [/6] result-cache / shared-demand counters + the skewed
    repeat-query workload section, [/7]-[/8] further counters, [/9]
    exact counters and the calibrated CPU gate, [/10] every registry
    metric in each row and no skew section. *)

val version : string
(** ["xnav-bench/10"]. *)

val metric_fields : Metric.t -> (string * string) list
(** The metric part of a bench JSON row: one [(name, JSON value)] pair
    per entry of {!Metric.all}, in registry order. Counts print as
    integers, seconds with six decimals, flags as [true]/[false].
    @raise Invalid_argument on a non-finite float. *)

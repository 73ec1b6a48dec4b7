(* Reproduction guards: the paper's qualitative results must keep
   holding. These are the assertions behind EXPERIMENTS.md, runnable in
   CI at reduced fidelity. *)

module Import = Xnav_store.Import
module Queries = Xnav_xmark.Queries
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec

let check = Alcotest.check
let bool = Alcotest.bool

(* Simulated I/O seconds only: deterministic, so a verdict built on it
   cannot hinge on CPU noise or on which plan ran first in the process. *)
let io_time ?config store plan (q : Queries.t) =
  List.fold_left
    (fun acc path ->
      acc +. (Exec.cold_run ?config ~ordered:false store path plan).Exec.metrics.Exec.io_time)
    0.0 q.Queries.paths

(* The paper's I/O regime: the pure demand scheduler, serving the lowest
   pending page, with no coalesced reads and no adaptive scan window. *)
let paper_io =
  let module Context = Xnav_core.Context in
  {
    Context.default_config with
    Context.coalesce_window = 0;
    Context.serve_policy = Context.Serve_min_pid;
    Context.scan_threshold = 0.0;
  }

let simple = Plan.simple
let xschedule = Plan.xschedule ~speculative:false ()
let xscan = Plan.xscan ()

let tests =
  [
    Alcotest.test_case "fig 9/10: XSchedule beats Simple on every query at sf=1" `Slow
      (fun () ->
        let store = Gen.bench_store ~scale:1.0 () in
        (* Simulated I/O carries the verdict: Q6' 0.077 vs 0.120 s, Q7
           0.296 vs 1.292 s (EXPERIMENTS.md, "Shape verdicts"). *)
        List.iter
          (fun q ->
            check bool q.Queries.name true (io_time store xschedule q < io_time store simple q))
          [ Queries.q6'; Queries.q7 ]);
    Alcotest.test_case "fig 10: XScan wins Q7 by a large factor" `Slow (fun () ->
        let store = Gen.bench_store ~scale:1.0 () in
        (* Compared on simulated I/O in the paper's regime. With the
           default knobs XSchedule's adaptive scan windows read the same
           pages as XScan (0.29580 s vs 0.29445 s), so a total-time
           verdict came down to CPU noise and run order. *)
        let io plan = io_time ~config:paper_io store plan Queries.q7 in
        let scan = io xscan in
        check bool "vs simple >= 2.5x" true (io simple > 2.5 *. scan);
        check bool "vs schedule" true (io xschedule > scan));
    Alcotest.test_case "fig 11: XScan collapses on selective Q15" `Slow (fun () ->
        let store = Gen.bench_store ~scale:1.0 () in
        (* On simulated I/O: 0.098 vs 0.041 s, a 2.39x gap. *)
        check bool "scan much worse" true
          (io_time store xscan Queries.q15 > 2.0 *. io_time store simple Queries.q15));
    Alcotest.test_case "fig 9-11: costs grow with the scaling factor" `Slow (fun () ->
        let small = Gen.bench_store ~scale:0.25 () in
        let large = Gen.bench_store ~scale:1.0 () in
        (* On simulated I/O; the narrowest gap is Q15 under Simple, 2.1x. *)
        List.iter
          (fun (q : Queries.t) ->
            List.iter
              (fun plan ->
                check bool q.Queries.name true (io_time large plan q > io_time small plan q))
              [ simple; xschedule; xscan ])
          Queries.all);
    Alcotest.test_case "tab 3: XScan has the highest CPU share" `Slow (fun () ->
        let store = Gen.bench_store ~scale:1.0 () in
        (* The paper's Table 3 profiles the pure demand scheduler over
           the XStep iterator chain, so pin both knobs to the historical
           regime: with the adaptive scan window on (the default),
           XSchedule streams Q7 much like XScan does, and with the fused
           automaton on XScan's CPU share drops below Simple's — in both
           cases the share ordering the table reports is no longer
           meaningful. *)
        let paper = { paper_io with Xnav_core.Context.fused = false } in
        (* CPU per path is the minimum over [reps] cold runs, taken in
           rounds that visit every plan and path in turn, so a phase of
           host contention cannot hold all of one plan's repetitions:
           the least-disturbed run, as the Table 3 figures in
           EXPERIMENTS.md. The simulated I/O is the same in every run. *)
        let reps = 5 in
        let plans = [| simple; xschedule; xscan |] in
        let paths = Array.of_list Queries.q7.Queries.paths in
        let io = Array.make_matrix 3 (Array.length paths) 0.0 in
        let cpu = Array.make_matrix 3 (Array.length paths) infinity in
        for _ = 1 to reps do
          Array.iteri
            (fun p plan ->
              Array.iteri
                (fun i path ->
                  let r = Exec.cold_run ~config:paper ~ordered:false store path plan in
                  let m = r.Exec.metrics in
                  io.(p).(i) <- m.Exec.io_time;
                  cpu.(p).(i) <- Float.min cpu.(p).(i) m.Exec.cpu_time)
                paths)
            plans
        done;
        let share p =
          let sum = Array.fold_left ( +. ) 0.0 in
          sum cpu.(p) /. (sum io.(p) +. sum cpu.(p))
        in
        Printf.printf "CPU share (min of %d): simple %.4f, xschedule %.4f, xscan %.4f\n" reps
          (share 0) (share 1) (share 2);
        check bool "scan > simple" true (share 2 > share 0);
        check bool "scan > schedule" true (share 2 > share 1));
    Alcotest.test_case "sec 2/3: XScan is robust to layout decay, Simple is not" `Slow
      (fun () ->
        let fresh = Gen.bench_store ~scale:0.5 () in
        let decayed = Gen.bench_store ~strategy:(Import.Scattered 11) ~scale:0.5 () in
        (* On simulated I/O: Simple 110x, XScan 1.003x. *)
        let ratio plan = io_time decayed plan Queries.q6' /. io_time fresh plan Queries.q6' in
        check bool "simple degrades badly" true (ratio simple > 10.0);
        check bool "scan barely moves" true (ratio xscan < 3.0));
  ]

let suite = [ ("shapes", tests) ]

(* Interleaved (concurrent) query execution over the shared buffer pool
   and asynchronous I/O queue, through the workload engine with one
   single-job client per query. *)

module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Buffer_manager = Xnav_storage.Buffer_manager
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Workload = Xnav_workload.Workload

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Runs the (path, plan) pairs at once and returns the result with the
   jobs in submission order. *)
let run ?quantum store queries =
  let specs =
    List.mapi
      (fun i (path, plan) ->
        { Workload.label = string_of_int i; path; plan; timeout = None; ops = [] })
      queries
  in
  let r = Workload.run ?quantum ~cold:true store specs in
  let job i =
    List.find (fun (j : Workload.job) -> j.Workload.job_label = string_of_int i) r.Workload.jobs
  in
  (r, List.mapi (fun i _ -> job i) queries)

let count (j : Workload.job) = j.Workload.count

let tests =
  [
    Alcotest.test_case "two schedule plans agree with the oracle" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~payload:220 ~capacity:16 doc in
        let q1 = Xpath_parser.parse "//b" and q2 = Xpath_parser.parse "//x" in
        let _, jobs = run store [ (q1, Plan.xschedule ()); (q2, Plan.xschedule ()) ] in
        check int "q1" (Eval_ref.count doc q1) (count (List.nth jobs 0));
        check int "q2" (Eval_ref.count doc q2) (count (List.nth jobs 1)));
    Alcotest.test_case "mixed plan kinds coexist" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:60 () in
        let store, _ = Gen.import_store ~payload:220 ~capacity:16 doc in
        let queries =
          [
            (Xpath_parser.parse "//b", Plan.simple);
            (Xpath_parser.parse "//x", Plan.xscan ());
            (Xpath_parser.parse "//y", Plan.xschedule ~speculative:false ());
          ]
        in
        let _, jobs = run store queries in
        List.iteri
          (fun i ((path, _), j) ->
            check int (Printf.sprintf "query %d" i) (Eval_ref.count doc path) (count j))
          (List.combine queries jobs);
        check int "no pins" 0 (Buffer_manager.pinned_count (Store.buffer store)));
    Alcotest.test_case "duplicate simple results are filtered per lane" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let path = Xpath_parser.parse "//A//B" in
        let _, jobs = run store [ (path, Plan.Simple { dedup_intermediate = false }) ] in
        check int "deduped" (Eval_ref.count doc path) (count (List.hd jobs)));
    Alcotest.test_case "concurrent scans interfere; concurrent schedules do not" `Quick
      (fun () ->
        (* Two sequential scans have zero seek distance. Interleaved, the
           head ping-pongs between two scan positions. A zero cost credit
           ends every turn after one result, so the two scans alternate
           result by result; under the default credit each of these
           short scans would finish within its first turn. *)
        let doc = Gen.wide_tree ~children:200 () in
        let store, _ = Gen.import_store ~payload:220 ~capacity:64 doc in
        let p1 = Xpath_parser.parse "//b" and p2 = Xpath_parser.parse "//x" in
        let both, _ = run ~quantum:0.0 store [ (p1, Plan.xscan ()); (p2, Plan.xscan ()) ] in
        check bool "scans fight for the head" true (both.Workload.seek_distance > 0));
    Alcotest.test_case "same query twice: second lane rides the buffer" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, import = Gen.import_store ~payload:220 ~capacity:256 doc in
        let path = Xpath_parser.parse "//b" in
        let r, jobs = run store [ (path, Plan.xscan ()); (path, Plan.xscan ()) ] in
        check bool "reads less than two full scans" true
          (r.Workload.page_reads < 2 * import.Import.page_count);
        check int "same counts" (count (List.nth jobs 0)) (count (List.nth jobs 1)));
    Alcotest.test_case "empty query list rejected" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        match Workload.run ~cold:true store [] with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let props =
  [
    QCheck2.Test.make ~name:"interleave: all lanes match the oracle on random inputs" ~count:40
      QCheck2.Gen.(pair (Gen.tree_gen ~size:40 ()) (oneofl [ Import.Dfs; Import.Scattered 6 ]))
      ~print:(fun (tree, strategy) ->
        Printf.sprintf "%s / %s" (Gen.tree_print tree) (Import.strategy_to_string strategy))
      (fun (tree, strategy) ->
        let store, _ = Gen.import_store ~strategy ~payload:180 ~capacity:16 tree in
        let queries =
          [
            (Xpath_parser.parse "//a", Plan.xschedule ());
            (Xpath_parser.parse "//b//c", Plan.xscan ());
            (Xpath_parser.parse "//d", Plan.simple);
          ]
        in
        let _, jobs = run store queries in
        List.for_all2 (fun (path, _) j -> count j = Eval_ref.count tree path) queries jobs);
  ]

let suite = [ ("interleave", tests); Gen.qsuite "interleave.props" props ]

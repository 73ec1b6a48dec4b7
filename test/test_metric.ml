(* The metric registry: every consumer of the run metrics — aggregation,
   printing, the bench JSON row, the invariant sweep, the result-cache
   hit — is derived from Metric.all, so these tests iterate over it
   instead of naming fields. *)

module Store = Xnav_store.Store
module Xpath_parser = Xnav_xpath.Xpath_parser
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Metric = Xnav_core.Metric
module Invariant = Xnav_core.Invariant
module Bench_schema = Xnav_core.Bench_schema

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let names = List.map (fun (e : Metric.entry) -> e.name) Metric.all

(* Give every metric of a fresh record the same value: [n] for counts
   and seconds, [flag] for flags. *)
let filled n flag =
  let m = Metric.create () in
  List.iter
    (fun (e : Metric.entry) ->
      match e.field with
      | Metric.Int (_, set) -> set m n
      | Metric.Float (_, set) -> set m (float_of_int n)
      | Metric.Bool (_, set) -> set m flag)
    Metric.all;
  m

let count_word word words = List.length (List.filter (String.equal word) words)

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\n' || c = ':' then ' ' else c) s)

let tests =
  [
    Alcotest.test_case "metric names are unique" `Quick (fun () ->
        check int "distinct names" (List.length names)
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "each metric appears once in a bench row and in pp_metrics" `Quick
      (fun () ->
        let m = filled 3 true in
        let row = List.map fst (Bench_schema.metric_fields m) in
        let printed = words (Format.asprintf "%a" Exec.pp_metrics m) in
        List.iter
          (fun name ->
            check int (name ^ " in the bench row") 1 (count_word name row);
            check int (name ^ " in pp_metrics") 1 (count_word name printed))
          names;
        check int "no other row fields" (List.length names) (List.length row));
    Alcotest.test_case "add follows each metric's kind" `Quick (fun () ->
        let sum = Metric.add (filled 2 false) (filled 3 true) in
        List.iter
          (fun (e : Metric.entry) ->
            match (e.field, e.kind) with
            | Metric.Int (get, _), Metric.Peak -> check int (e.name ^ " takes the max") 3 (get sum)
            | Metric.Int (get, _), _ -> check int (e.name ^ " adds") 5 (get sum)
            | Metric.Float (get, _), _ -> check bool (e.name ^ " adds") true (get sum = 5.0)
            | Metric.Bool (get, _), _ -> check bool (e.name ^ " sticks") true (get sum))
          Metric.all;
        let zero = Metric.add (Metric.create ()) (Metric.create ()) in
        check bool "zero is the identity" true
          (List.for_all (fun (e : Metric.entry) -> Metric.is_zero e zero) Metric.all));
    Alcotest.test_case "a result-cache hit reports only itself and its CPU" `Quick (fun () ->
        let store, _ = Gen.import_store ~payload:220 (Gen.wide_tree ~children:60 ()) in
        let config =
          Context.set_result_cache true { Context.default_config with Context.validate = true }
        in
        let path = Xpath_parser.parse "/descendant::b" in
        let miss = Exec.run ~config store path (Plan.xscan ()) in
        let hit = Exec.run ~config store path (Plan.xscan ()) in
        check int "same answer" miss.Exec.count hit.Exec.count;
        check bool "the miss executed" true (miss.Exec.metrics.Exec.clusters_visited > 0);
        List.iter
          (fun (e : Metric.entry) ->
            match e.name with
            | "cache_hits" -> check int "cache_hits" 1 hit.Exec.metrics.Exec.cache_hits
            | "cpu_time" | "total_time" -> ()
            | name -> check bool (name ^ " is 0 on a hit") true (Metric.is_zero e hit.Exec.metrics))
          Metric.all);
    Alcotest.test_case "the invariant sweep covers the disk and buffer deltas" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.wide_tree ~children:10 ()) in
        List.iter
          (fun (e : Metric.entry) ->
            match (e.layer, e.field) with
            | (Metric.Disk | Metric.Buffer), Metric.Int (_, set) ->
              let ctx = Context.create store in
              set ctx.Context.counters (-1);
              let negative = Printf.sprintf "counter %s is negative (-1)" e.name in
              check bool (e.name ^ " is swept") true
                (List.mem negative (Invariant.post_run ctx))
            | _ -> ())
          Metric.all;
        check bool "the sweep includes disk and buffer metrics" true
          (List.exists (fun (e : Metric.entry) -> e.layer = Metric.Disk) Metric.all
          && List.exists (fun (e : Metric.entry) -> e.layer = Metric.Buffer) Metric.all));
  ]

let suite = [ ("metric", tests) ]

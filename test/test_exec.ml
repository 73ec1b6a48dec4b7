(* Executor-level behaviours: streams, metrics invariants, the async
   dispatch overhead, plan explain, and compile plan_for. *)

module Tree = Xnav_xml.Tree
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Compile = Xnav_core.Compile

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* Simple's buffer and disk figures on the paper-shape store, per path
   of Q6', Q7 and Q15: (result count, buffer lookups, buffer misses,
   page reads, simulated io_time). These pin the fix sequence of global
   navigation — how much of each record a walk parses must not change
   which pages it fixes, in what order. Page packing, and so the pins,
   assume every tag id fits a one-byte varint: fewer than 128 tags
   interned in the process, as in this suite. *)
let simple_pins =
  let q7 = (167124, 757, 757, 0x1.b92bbc0a80921p-2) in
  let with_count n (l, m, r, io) = (n, l, m, r, io) in
  [
    (Xnav_xmark.Queries.q6', [ (435, 53314, 247, 247, 0x1.ea6c8549bf66fp-4) ]);
    (Xnav_xmark.Queries.q7, [ with_count 890 q7; with_count 435 q7; with_count 510 q7 ]);
    (Xnav_xmark.Queries.q15, [ (154, 9045, 169, 169, 0x1.50458b19a23ecp-5) ]);
  ]

let tests =
  [
    Alcotest.test_case "stream pulls lazily and ends with None" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:40 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let path = Xpath_parser.parse "//b" in
        let stream = Exec.prepare store path (Plan.xscan ()) in
        let rec drain n =
          match Exec.stream_next stream with None -> n | Some _ -> drain (n + 1)
        in
        let n = drain 0 in
        check int "all results" (Eval_ref.count doc path) n;
        check bool "None is final" true (Exec.stream_next stream = None);
        check bool "no fallback" false (Exec.stream_fell_back stream));
    Alcotest.test_case "abandoned stream leaves pins only until released" `Quick (fun () ->
        (* XSchedule holds its current cluster pinned between pulls — an
           abandoned stream may keep one pin (documented behaviour); a
           drained one must not. *)
        let doc = Gen.wide_tree ~children:40 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let stream = Exec.prepare store (Xpath_parser.parse "//b") (Plan.xschedule ()) in
        let rec drain () = match Exec.stream_next stream with None -> () | Some _ -> drain () in
        drain ();
        check int "pins" 0 (Buffer_manager.pinned_count (Store.buffer store)));
    Alcotest.test_case "metrics: total = io + cpu; reads split cleanly" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:80 () in
        let store, _ = Gen.import_store ~payload:220 ~capacity:8 doc in
        List.iter
          (fun plan ->
            let m = (Exec.cold_run ~ordered:false store (Xpath_parser.parse "//x") plan).Exec.metrics in
            check bool "total" true
              (abs_float (m.Exec.total_time -. (m.Exec.io_time +. m.Exec.cpu_time)) < 1e-9);
            check int "split" m.Exec.page_reads (m.Exec.sequential_reads + m.Exec.random_reads);
            check bool "io nonneg" true (m.Exec.io_time >= 0.))
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
    Alcotest.test_case "async requests pay the dispatch overhead" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 10 do
          ignore (Disk.alloc d)
        done;
        Disk.reset_clock d;
        let sched = Xnav_storage.Io_scheduler.create d in
        Xnav_storage.Io_scheduler.submit sched 5;
        (match Xnav_storage.Io_scheduler.complete_one sched with
        | Some _ -> ()
        | None -> Alcotest.fail "expected completion");
        let direct = Disk.read_cost d 5 in
        check bool "overhead charged" true
          (Disk.elapsed d > direct -. 1e-12));
    Alcotest.test_case "Disk.charge advances the clock verbatim" `Quick (fun () ->
        let d = Disk.create () in
        Disk.charge d 0.125;
        check bool "charged" true (abs_float (Disk.elapsed d -. 0.125) < 1e-12));
    Alcotest.test_case "ordered=false skips sorting but not dedup" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let path = Xpath_parser.parse "//A//B" in
        let r = Exec.cold_run ~ordered:false store path (Plan.Simple { dedup_intermediate = false }) in
        check int "dedup still applies" (Eval_ref.count doc path) r.Exec.count);
    Alcotest.test_case "plan explain renders all shapes" `Quick (fun () ->
        let path = Xpath_parser.parse "/a//b" in
        List.iter
          (fun plan ->
            let rendered = Format.asprintf "%a" Plan.explain (path, plan) in
            check bool (Plan.name plan) true (String.length rendered > 10))
          [ Plan.simple; Plan.xschedule (); Plan.xscan ~dslash:true (); Plan.xscan () ]);
    Alcotest.test_case "plan_for rewrites when asked" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        let raw = Xpath_parser.parse "/A//B" in
        let rewritten, _ = Compile.plan_for ~rewrite:true store raw in
        let untouched, _ = Compile.plan_for store raw in
        check int "shorter" (Path.length raw - 1) (Path.length rewritten);
        check bool "same without flag" true (Path.equal raw untouched));
    Alcotest.test_case "trace hook fires for reordered plans" `Quick (fun () ->
        let doc = Gen.wide_tree ~children:50 () in
        let store, _ = Gen.import_store ~payload:220 doc in
        let events = ref 0 in
        ignore
          (Exec.cold_run ~trace:(fun _ -> incr events) ~ordered:false store
             (Xpath_parser.parse "//b") (Plan.xscan ()));
        check bool "events seen" true (!events > 0));
    Alcotest.test_case "Simple keeps its pinned fix sequence on Q6', Q7, Q15" `Slow (fun () ->
        let store = Gen.bench_store ~scale:1.0 () in
        List.iter
          (fun ((q : Xnav_xmark.Queries.t), pins) ->
            List.iter2
              (fun path (count, lookups, misses, reads, io) ->
                let r = Exec.cold_run ~ordered:false store path Plan.simple in
                let m = r.Exec.metrics in
                let name what =
                  Printf.sprintf "%s %s: %s" q.Xnav_xmark.Queries.name (Path.to_string path) what
                in
                check int (name "count") count r.Exec.count;
                check int (name "buffer lookups") lookups m.Exec.buffer_lookups;
                check int (name "buffer misses") misses m.Exec.buffer_misses;
                check int (name "page reads") reads m.Exec.page_reads;
                check (Alcotest.float 0.0) (name "io_time") io m.Exec.io_time)
              q.Xnav_xmark.Queries.paths pins)
          simple_pins);
    Alcotest.test_case "Simple allocates at most 20 words per buffer lookup on Q7" `Slow
      (fun () ->
        (* A walk that decoded whole records would allocate ~115 words
           per lookup; reading in place leaves the buffer manager's own
           few words plus the results. *)
        let store = Gen.bench_store ~scale:1.0 () in
        List.iter
          (fun path ->
            let w0 = Gc.minor_words () in
            let r = Exec.cold_run ~ordered:false store path Plan.simple in
            let words = Gc.minor_words () -. w0 in
            let per_lookup = words /. float_of_int r.Exec.metrics.Exec.buffer_lookups in
            check bool
              (Printf.sprintf "%s: %.1f words per lookup" (Path.to_string path) per_lookup)
              true (per_lookup <= 20.0))
          Xnav_xmark.Queries.q7.Xnav_xmark.Queries.paths);
    Alcotest.test_case "empty path is rejected" `Quick (fun () ->
        let store, _ = Gen.import_store (Gen.sample_doc ()) in
        match Exec.cold_run store [] Plan.simple with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
  ]

let suite = [ ("exec", tests) ]

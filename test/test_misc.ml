(* Remaining edge cases: scheduler corner states, ordpath codec offsets,
   query printing, path helpers, multi-document disks. *)

module Tree = Xnav_xml.Tree
module Ordpath = Xnav_xml.Ordpath
module Axis = Xnav_xml.Axis
module Disk = Xnav_storage.Disk
module Io_scheduler = Xnav_storage.Io_scheduler
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Rewrite = Xnav_xpath.Rewrite
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Eval_ref = Xnav_xpath.Eval_ref

let check = Alcotest.check
let bool = Alcotest.bool

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0
let int = Alcotest.int

let tests =
  [
    Alcotest.test_case "scheduler: complete_one on empty queue" `Quick (fun () ->
        let d = Disk.create () in
        let s = Io_scheduler.create d in
        check bool "none" true (Io_scheduler.complete_one s = None);
        check int "pending" 0 (Io_scheduler.pending_count s));
    Alcotest.test_case "scheduler: head beyond every pending page" `Quick (fun () ->
        let d = Disk.create () in
        for _ = 1 to 50 do
          ignore (Disk.alloc d)
        done;
        ignore (Disk.read d 49);
        List.iter
          (fun policy ->
            let s = Io_scheduler.create ~policy d in
            List.iter (Io_scheduler.submit s) [ 3; 7; 1 ];
            let rec drain acc =
              match Io_scheduler.complete_one s with
              | None -> acc
              | Some (pid, _) -> drain (pid :: acc)
            in
            check int (Io_scheduler.policy_to_string policy) 3 (List.length (drain [])))
          Io_scheduler.all_policies);
    Alcotest.test_case "ordpath: decode at a nonzero offset" `Quick (fun () ->
        let buf = Buffer.create 16 in
        Buffer.add_string buf "junk";
        let label = Ordpath.child (Ordpath.child Ordpath.root 2) 7 in
        Ordpath.encode buf label;
        let decoded, next = Ordpath.decode (Buffer.contents buf) 4 in
        check bool "equal" true (Ordpath.equal label decoded);
        check int "consumed" (Buffer.length buf) next);
    Alcotest.test_case "path helpers" `Quick (fun () ->
        check bool "downward" true (Path.is_downward (Xpath_parser.parse "//a/b"));
        check bool "not downward" false (Path.is_downward (Xpath_parser.parse "//a/.."));
        check bool "// prefix" true
          (Path.starts_with_descendant_any (Xpath_parser.parse "//a"));
        check bool "no // prefix" false
          (Path.starts_with_descendant_any (Xpath_parser.parse "/a//b"));
        let p = Xpath_parser.parse "/a/b" in
        check bool "from_root_element changes child to self" true
          (match Path.from_root_element p with
          | { Path.axis = Axis.Self; _ } :: _ -> true
          | _ -> false));
    Alcotest.test_case "path to_string round-trips through the parser" `Quick (fun () ->
        List.iter
          (fun str ->
            let p = Xpath_parser.parse str in
            let p2 = Xpath_parser.parse (Path.to_string p) in
            check bool str true (Path.equal p p2))
          [ "//a/b"; "/descendant::x/child::y"; "//*"; "/a/following-sibling::b/.." ]);
    Alcotest.test_case "rewrite composes with reordered execution" `Quick (fun () ->
        let doc = Gen.sample_doc () in
        let store, _ = Gen.import_store ~payload:200 doc in
        let raw = Xpath_parser.parse "/A//B//C" in
        let rewritten = Rewrite.normalize raw in
        List.iter
          (fun plan ->
            check int (Plan.name plan) (Eval_ref.count doc raw)
              (Exec.cold_run ~ordered:false store rewritten plan).Exec.count)
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
    Alcotest.test_case "queries work on the second document of a shared disk" `Quick
      (fun () ->
        let disk = Gen.small_disk ~page_size:512 () in
        let _ = Import.run disk (Gen.sample_doc ()) in
        let i2 = Import.run disk (Gen.wide_tree ~children:50 ()) in
        let buffer = Buffer_manager.create ~capacity:32 disk in
        let s2 = Store.attach buffer i2 in
        let doc2 = Gen.wide_tree ~children:50 () in
        let path = Xpath_parser.parse "//x" in
        List.iter
          (fun plan ->
            check int (Plan.name plan) (Eval_ref.count doc2 path)
              (Exec.cold_run ~ordered:false s2 path plan).Exec.count)
          [ Plan.simple; Plan.xschedule (); Plan.xscan () ]);
    Alcotest.test_case "xscan of the second document never touches the first" `Quick
      (fun () ->
        let disk = Gen.small_disk ~page_size:512 () in
        let i1 = Import.run disk (Gen.sample_doc ()) in
        let i2 = Import.run disk (Gen.wide_tree ~children:50 ()) in
        let buffer = Buffer_manager.create ~capacity:32 disk in
        let s2 = Store.attach buffer i2 in
        Disk.set_trace disk true;
        ignore (Exec.cold_run ~ordered:false s2 (Xpath_parser.parse "//x") (Plan.xscan ()));
        Disk.set_trace disk false;
        check bool "stays in its range" true
          (List.for_all (fun pid -> pid >= i2.Import.first_page) (Disk.trace disk));
        ignore i1);
    Alcotest.test_case "committed bench baseline carries the current schema tag" `Quick
      (fun () ->
        (* The schema string lives in one place (Bench_schema.version);
           the committed baseline must have been regenerated against it,
           or `bench --compare` gates against stale numbers. *)
        let ic = open_in "../BENCH_results.json" in
        let contents = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let needle = Printf.sprintf "%S" Xnav_core.Bench_schema.version in
        check bool
          (Printf.sprintf "baseline mentions %s" needle)
          true (contains contents needle));
    Alcotest.test_case "the CLI reports a malformed path as a usage error" `Quick (fun () ->
        (* Every subcommand that takes a path parses it in its argument
           converter, and counts and sizes are range-checked in theirs:
           cmdliner's usage-error exit (124) with the reason, never an
           uncaught exception (125) or a vacuous run (0). *)
        let err = Filename.temp_file "xnav" ".err" in
        let at position = Printf.sprintf "at position %d: expected a name" position in
        let too_small = "page size too small for a single node record" in
        List.iter
          (fun (args, expected) ->
            let code =
              Sys.command
                (Printf.sprintf "../bin/xnav.exe %s > /dev/null 2> %s" args (Filename.quote err))
            in
            let ic = open_in err in
            let msg = In_channel.input_all ic in
            close_in ic;
            check Alcotest.int (args ^ ": exit code") 124 code;
            check bool
              (Printf.sprintf "%s: message %S mentions %S" args msg expected)
              true (contains msg expected))
          [
            ("query '//item['", at 7);
            ("explain 'child::'", at 7);
            ("check --path '/a//'", at 4);
            ("workload '//a' 'b/'", at 2);
            ("query --buffer 0 '//a'", "option '--buffer'");
            ("query --page-size 0 '//a'", "option '--page-size'");
            ("workload --clients 0 '//a'", "option '--clients'");
            ("workload --rounds 0 '//a'", "option '--rounds'");
            ("workload --writers=-1 '//a'", "option '--writers'");
            ("check --cases 0", "option '--cases'");
            ("check --cases=-5", "option '--cases'");
            ("query --page-size 16 --fidelity 0.001 '//a'", too_small);
            ("check --path '/a' --page-size 16", too_small);
          ];
        Sys.remove err);
  ]

let suite = [ ("misc", tests) ]

let suites =
  Test_xml.suite @ Test_storage.suite @ Test_store.suite @ Test_plans.suite @ Test_xmark.suite
  @ Test_multi.suite @ Test_interleave.suite @ Test_rewrite.suite @ Test_update.suite
  @ Test_query.suite @ Test_export.suite @ Test_image.suite @ Test_stats.suite @ Test_exec.suite
  @ Test_metric.suite @ Test_adversarial.suite @ Test_differential.suite @ Test_workload.suite
  @ Test_misc.suite @ Test_shapes.suite

(* Alcotest sizes its suite column to the longest suite name and
   truncates every test name to what is left of the line, so one longer
   suite name changes how every test is reported. Keep them short. *)
let max_suite_name = 22

let () =
  List.iter
    (fun (name, _) ->
      if String.length name > max_suite_name then begin
        Printf.eprintf "test suite name %S is %d characters long; the limit is %d\n" name
          (String.length name) max_suite_name;
        exit 1
      end)
    suites;
  Alcotest.run "xnav" suites

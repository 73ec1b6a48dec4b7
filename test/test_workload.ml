(* The concurrent workload engine: admission control, round-robin with
   cost credits, cross-query coalescing, per-query timeout/abort, and
   fairness accounting — all checked against serial runs of the same
   queries. *)

module Disk = Xnav_storage.Disk
module Io_scheduler = Xnav_storage.Io_scheduler
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Update = Xnav_store.Update
module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Xpath_parser = Xnav_xpath.Xpath_parser
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Context = Xnav_core.Context
module Result_cache = Xnav_core.Result_cache
module Workload = Xnav_workload.Workload

let check = Alcotest.check

let id_list = Alcotest.testable (Fmt.Dump.list Node_id.pp) (List.equal Node_id.equal)

let doc () = Gen.wide_tree ~children:40 ()

let build ~capacity tree =
  let config = { Disk.default_config with Disk.page_size = 256 } in
  let disk = Disk.create ~config () in
  let import = Import.run ~payload:96 disk tree in
  let buffer = Buffer_manager.create ~capacity ~policy:Io_scheduler.Elevator disk in
  Store.attach buffer import

let validating = { Context.default_config with Context.validate = true }

let spec ?timeout ?(ops = []) label path plan =
  { Workload.label; path = Xpath_parser.parse path; plan; timeout; ops }

let mix () =
  [
    spec "q-root" "/child::*" Plan.simple;
    spec "q-x" "/child::*/child::x" (Plan.xschedule ());
    spec "q-y" "/descendant::y" (Plan.xscan ());
    spec "q-a" "/child::a" (Plan.xschedule ());
  ]

let ids_of nodes = List.map (fun (i : Store.info) -> i.Store.id) nodes |> List.sort Node_id.compare

let serial_ids store config s =
  ids_of (Exec.cold_run ~config store s.Workload.path s.Workload.plan).Exec.nodes

let job_by_label r label =
  List.find (fun (j : Workload.job) -> j.Workload.job_label = label) r.Workload.jobs

(* Every query run concurrently must produce exactly its serial answer,
   and the engine must end with the invariant layer clean. *)
let concurrent_equals_serial () =
  let store = build ~capacity:16 (doc ()) in
  let specs = mix () in
  let expected = List.map (fun s -> (s.Workload.label, serial_ids store validating s)) specs in
  let r = Workload.run ~config:validating ~cold:true store specs in
  check Alcotest.int "one job per query" (List.length specs) (List.length r.Workload.jobs);
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  List.iter
    (fun (label, want) ->
      let j = job_by_label r label in
      check Alcotest.string "completed"
        (Workload.status_to_string Workload.Completed)
        (Workload.status_to_string j.Workload.status);
      check id_list label want (ids_of j.Workload.nodes))
    expected;
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

(* Admission generalises the capacity-1 rule: a pool too small for two
   queries' worst-case pin demand serialises them (but always admits a
   lone query), while a large pool runs the whole mix at once. *)
let admission_scales_with_capacity () =
  let tree = doc () in
  let small = build ~capacity:2 tree in
  let r_small = Workload.run ~config:validating ~cold:true small (mix ()) in
  check Alcotest.int "capacity 2 serialises" 1 r_small.Workload.max_concurrent;
  check Alcotest.(list string) "small pool still clean" [] r_small.Workload.violations;
  let roomy = build ~capacity:64 tree in
  let r_roomy = Workload.run ~config:validating ~cold:true roomy (mix ()) in
  check Alcotest.int "capacity 64 admits the whole mix" 4 r_roomy.Workload.max_concurrent;
  (* Serialised admission makes later queries wait for the pool: the
     wait is visible as pin-wait time on the simulated clock. *)
  let total_wait = List.fold_left (fun a j -> a +. j.Workload.pin_wait) 0.0 r_small.Workload.jobs in
  check Alcotest.bool "serialised queries waited for admission" true (total_wait > 0.0)

(* A timeout aborts the query at its deadline: the job reports Timed_out
   with no results, unwinds through abort_async without poisoning the
   pool, and the other queries still answer correctly. *)
let timeout_unwinds_cleanly () =
  let store = build ~capacity:16 (doc ()) in
  let doomed = spec ~timeout:0.0 "q-doomed" "/descendant::y" (Plan.xschedule ()) in
  let survivor = spec "q-x" "/child::*/child::x" (Plan.xschedule ()) in
  let expected = serial_ids store validating survivor in
  let r = Workload.run ~config:validating ~cold:true store [ doomed; survivor ] in
  let j_doomed = job_by_label r "q-doomed" in
  check Alcotest.string "doomed job timed out"
    (Workload.status_to_string Workload.Timed_out)
    (Workload.status_to_string j_doomed.Workload.status);
  check Alcotest.int "timed-out job has no results" 0 j_doomed.Workload.count;
  let j_survivor = job_by_label r "q-x" in
  check id_list "survivor answers correctly" expected (ids_of j_survivor.Workload.nodes);
  check Alcotest.(list string) "pool unwound cleanly" [] r.Workload.violations;
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

(* Fairness accounting: each turn credits the chosen query and debits
   every other runnable one, so under real concurrency every completed
   query was served at least once and somebody was made to wait. *)
let fairness_counters_advance () =
  let store = build ~capacity:16 (doc ()) in
  let r = Workload.run ~config:validating ~cold:true store (mix ()) in
  check Alcotest.bool "ran concurrently" true (r.Workload.max_concurrent > 1);
  List.iter
    (fun (j : Workload.job) ->
      check Alcotest.bool
        (Printf.sprintf "%s was served" j.Workload.job_label)
        true (j.Workload.served_ticks > 0))
    r.Workload.jobs;
  let starved = List.fold_left (fun a j -> a + j.Workload.starved_ticks) 0 r.Workload.jobs in
  check Alcotest.bool "contention was recorded" true (starved > 0);
  check Alcotest.bool "turns were taken" true (r.Workload.turns > 0)

(* Closed-loop clients: each client submits its next job as soon as the
   previous finishes, so every queued job runs exactly once. *)
let closed_loop_clients_drain () =
  let store = build ~capacity:16 (doc ()) in
  let a = spec "a" "/child::*/child::x" (Plan.xschedule ()) in
  let b = spec "b" "/descendant::y" (Plan.xscan ()) in
  let want_a = serial_ids store validating a in
  let want_b = serial_ids store validating b in
  let r = Workload.run_clients ~config:validating ~cold:true store [| [ a; b ]; [ b; a ] |] in
  check Alcotest.int "all four jobs ran" 4 (List.length r.Workload.jobs);
  List.iter
    (fun (j : Workload.job) ->
      let want = if j.Workload.job_label = "a" then want_a else want_b in
      check id_list j.Workload.job_label want (ids_of j.Workload.nodes))
    r.Workload.jobs;
  check Alcotest.(list string) "clean end" [] r.Workload.violations

(* --- writers: online updates under concurrent reads ----------------------- *)

let replay twin ops =
  List.iter
    (fun op ->
      match op with
      | Workload.Insert_child { parent; tag } -> ignore (Update.insert_element twin ~parent tag)
      | Workload.Delete_subtree victim -> ignore (Update.delete_subtree twin victim))
    ops

(* A writer client committing inserts and deletes against the shared
   store, interleaved with readers: every op commits exactly once, the
   commit log replayed serially on an identically-imported twin
   reproduces the final document, and the run ends clean. *)
let writer_mix_commits_and_replays () =
  let store, import = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 (doc ()) in
  let twin, _ = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 (doc ()) in
  let ids = import.Import.node_ids in
  let ops =
    [
      Workload.Insert_child { parent = ids.(0); tag = Tag.of_string "w" };
      Workload.Delete_subtree ids.(4);
      Workload.Insert_child { parent = ids.(0); tag = Tag.of_string "w" };
    ]
  in
  let writer = spec ~ops "w" "/child::*" Plan.simple in
  let readers =
    [
      spec "q-x" "/child::*/child::x" (Plan.xschedule ());
      spec "q-y" "/descendant::y" (Plan.xscan ());
    ]
  in
  let r = Workload.run_clients ~config:validating ~cold:true store [| readers; [ writer ] |] in
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  check Alcotest.int "every op committed" (List.length ops) r.Workload.writer_commits;
  check Alcotest.int "the commit log records every commit" r.Workload.writer_commits
    (List.length r.Workload.commit_log);
  let wj = job_by_label r "w" in
  check Alcotest.string "writer completed"
    (Workload.status_to_string Workload.Completed)
    (Workload.status_to_string wj.Workload.status);
  check Alcotest.int "a writer reports no nodes" 0 wj.Workload.count;
  check Alcotest.int "commits are attributed to the writer job" (List.length ops)
    wj.Workload.writer_commits;
  check Alcotest.bool "a writer is never a cache hit" false wj.Workload.cache_hit;
  replay twin r.Workload.commit_log;
  check Alcotest.bool "replaying the commit log reproduces the document" true
    (Tree.equal (Gen.reconstruct store) (Gen.reconstruct twin));
  check Alcotest.int "no pins leaked" 0 (Buffer_manager.pinned_count (Store.buffer store))

(* A commit into a cluster a running reader has already observed must
   force the reader to restart under a fresh snapshot: the reader
   reports at least one retry and its final answer is the post-commit
   serial answer (it sees the inserted node). *)
let snapshot_conflict_restarts_reader () =
  let store, import = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 (doc ()) in
  (* Insert under the document's first child: the splice writes the
     first cluster, which the descendant scan observes on its very first
     turns — appending under the root would only write the last
     sibling's cluster, at the far end the reader hasn't reached. *)
  let first_child = import.Import.node_ids.(1) in
  let writer =
    spec ~ops:[ Workload.Insert_child { parent = first_child; tag = Tag.of_string "y" } ] "w"
      "/child::*" Plan.simple
  in
  (* Simple navigation yields on every random I/O, so the reader stays in
     flight across many turns while the writer commits. *)
  let reader = spec "q-y" "/descendant::y" Plan.simple in
  let r = Workload.run_clients ~config:validating ~cold:true store [| [ reader ]; [ writer ] |] in
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  check Alcotest.int "writer committed" 1 r.Workload.writer_commits;
  let rj = job_by_label r "q-y" in
  check Alcotest.bool "the commit into an observed cluster forced a restart" true
    (rj.Workload.snapshot_retries >= 1);
  check Alcotest.int "the restarted reader finished after the commit" 1
    rj.Workload.finish_commit;
  let expected = serial_ids store validating reader in
  check id_list "reader answer equals the post-commit serial answer" expected
    (ids_of rj.Workload.nodes)

(* A covering index reader is seeded from the path partition and reads
   no page, so no touch log covers a commit into its class: the engine
   treats it as dependent on every commit after its snapshot. Admitted
   before a writer inserts into its class, its answer must equal the
   serial replay at its finish_commit. *)
let covering_index_reader_replays_serially () =
  (* 400 [b] children: more than one turn's step cap, so the reader is
     still in flight when the writer commits on the third turn. *)
  let tree = Gen.wide_tree ~children:2000 () in
  let store, import = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 tree in
  let twin, _ = Gen.import_store ~payload:96 ~page_size:256 ~capacity:16 tree in
  let reader = spec "q-b" "/child::b" (Plan.xindex ()) in
  let serial = Exec.cold_run ~config:validating store reader.Workload.path reader.Workload.plan in
  check Alcotest.bool "the plan answers from the partition alone" true
    (serial.Exec.metrics.Exec.index_entries > 0 && serial.Exec.metrics.Exec.page_reads = 0);
  let root = import.Import.node_ids.(0) in
  let writer =
    spec ~ops:[ Workload.Insert_child { parent = root; tag = Tag.of_string "b" } ] "w"
      "/child::*" Plan.simple
  in
  let r = Workload.run_clients ~config:validating ~cold:true store [| [ writer ]; [ reader ] |] in
  check Alcotest.(list string) "no invariant violations" [] r.Workload.violations;
  check Alcotest.int "writer committed" 1 r.Workload.writer_commits;
  let rj = job_by_label r "q-b" in
  check Alcotest.bool "the reader was admitted before the commit" true
    (rj.Workload.started <= (job_by_label r "w").Workload.started);
  check Alcotest.int "the reader finished after the commit" 1 rj.Workload.finish_commit;
  replay twin r.Workload.commit_log;
  check id_list "reader answer equals the serial replay at its finish_commit"
    (serial_ids twin validating reader) (ids_of rj.Workload.nodes)

(* Cluster-granular invalidation, end to end through the front door: a
   commit whose write set is disjoint from a cached statement's
   footprint leaves the entry serving hits; a commit into the footprint
   drops exactly that entry and forces one recompute. *)
let untouched_paths_keep_hitting_across_commits () =
  (* The chain depth is modest: ordpaths grow with depth and each record
     must still fit the per-cluster payload budget. *)
  let rec chain k = if k = 0 then Tree.elt "c" [] else Tree.elt "b" [ chain (k - 1) ] in
  let tree = Tree.elt "r" [ Tree.elt "a" [ Tree.elt "x" [] ]; chain 8 ] in
  let store, _ = Gen.import_store ~payload:150 ~capacity:16 tree in
  let caching = { validating with Context.result_cache = true } in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  let q = spec "q" "/child::a/child::x" Plan.simple in
  let run_q () = Workload.run ~config:caching ~cold:true store [ q ] in
  let node_at path =
    (List.hd
       (Exec.cold_run ~config:validating store (Xpath_parser.parse path) Plan.simple).Exec.nodes)
      .Store.id
  in
  let writer label parent =
    spec ~ops:[ Workload.Insert_child { parent; tag = Tag.of_string "z" } ] label "/child::a"
      Plan.simple
  in
  let r1 = run_q () in
  let j1 = job_by_label r1 "q" in
  check Alcotest.bool "first run misses" false j1.Workload.cache_hit;
  check Alcotest.int "first run installs its answer" 1 r1.Workload.cache_misses;
  (* Commit into the deep tail of the b-chain — clusters the query never
     touched. *)
  let r2 = Workload.run ~config:caching ~cold:true store [ writer "w-far" (node_at "/descendant::c") ] in
  check Alcotest.int "far writer committed" 1 r2.Workload.writer_commits;
  check Alcotest.int "a disjoint write set stales nothing" 0 r2.Workload.cluster_stales;
  let r3 = run_q () in
  let j3 = job_by_label r3 "q" in
  check Alcotest.bool "untouched-path repeat still hits the cache" true j3.Workload.cache_hit;
  check id_list "the hit serves the original answer" (ids_of j1.Workload.nodes)
    (ids_of j3.Workload.nodes);
  (* Commit into the query's own footprint: insert under [a]. *)
  let r4 = Workload.run ~config:caching ~cold:true store [ writer "w-near" (node_at "/child::a") ] in
  check Alcotest.int "near writer committed" 1 r4.Workload.writer_commits;
  check Alcotest.int "an intersecting write set stales the entry" 1 r4.Workload.cluster_stales;
  let r5 = run_q () in
  let j5 = job_by_label r5 "q" in
  check Alcotest.bool "the staled entry forces a recompute" false j5.Workload.cache_hit;
  check id_list "the recomputed answer is unchanged" (ids_of j1.Workload.nodes)
    (ids_of j5.Workload.nodes);
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* --- sharded tenancy ------------------------------------------------------- *)

module Shard = Xnav_workload.Shard

let tenant_docs () =
  [ ("alpha", doc ()); ("beta", Gen.deep_tree ~depth:4 ()); ("gamma", Gen.sample_doc ()) ]

let topology ?(shards = 2) () =
  Shard.create ~capacity:16 ~page_size:256 ~payload:96 ~shards (tenant_docs ())

(* Placement is a pure function of the tenant name: stable across calls,
   in range, and what the topology actually used. *)
let stable_placement_is_deterministic () =
  let t = topology () in
  List.iter
    (fun (name, _) ->
      let s = Shard.stable_shard ~shards:2 name in
      check Alcotest.bool (name ^ " in range") true (s >= 0 && s < 2);
      check Alcotest.int (name ^ " is stable") s (Shard.stable_shard ~shards:2 name);
      check Alcotest.int (name ^ " topology agrees") s (Shard.shard_of t name))
    (tenant_docs ());
  check Alcotest.int "one shard maps everyone to it" 0 (Shard.stable_shard ~shards:1 "anything");
  (match Shard.stable_shard ~shards:0 "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument")

(* The sharded engine is read-only and knows its tenants: writer specs
   and unknown tenants are rejected up front, before any state moves. *)
let shard_rejects_writers_and_strangers () =
  let t = topology () in
  let root =
    (List.hd
       (Exec.cold_run ~config:validating (Shard.store t "alpha")
          (Xpath_parser.parse "/child::*") Plan.simple)
       .Exec.nodes)
      .Store.id
  in
  let writer =
    spec ~ops:[ Workload.Insert_child { parent = root; tag = Tag.of_string "w" } ] "w"
      "/child::*" Plan.simple
  in
  (match Shard.run_clients ~cold:true t [| [ { Shard.tenant = "alpha"; spec = writer } ] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for a writer spec");
  let q = spec "q" "/child::*" Plan.simple in
  (match Shard.run_clients ~cold:true t [| [ { Shard.tenant = "nobody"; spec = q } ] |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown tenant");
  match Shard.run_clients ~cold:true t [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an empty client array"

(* End to end: every (tenant, query) job run through the two-level
   scheduler must equal its serial cold run on the same tenant store,
   stats must cover every tenant and shard, and the run must end clean. *)
let sharded_mix_equals_serial () =
  let t = topology () in
  let names = List.map fst (tenant_docs ()) in
  let clients =
    Array.of_list
      (List.concat_map
         (fun name -> List.map (fun s -> [ { Shard.tenant = name; spec = s } ]) (mix ()))
         names)
  in
  let expected =
    List.concat_map
      (fun name ->
        List.map
          (fun s ->
            ( (name, s.Workload.label),
              ids_of
                (Exec.cold_run ~config:validating (Shard.store t name) s.Workload.path
                   s.Workload.plan)
                  .Exec.nodes ))
          (mix ()))
      names
  in
  let r = Shard.run_clients ~config:validating ~cold:true t clients in
  check Alcotest.(list string) "no invariant violations" [] r.Shard.violations;
  check Alcotest.int "every job ran" (Array.length clients) (List.length r.Shard.jobs);
  List.iter
    (fun (tenant, (j : Workload.job)) ->
      let want = List.assoc (tenant, j.Workload.job_label) expected in
      check Alcotest.string
        (tenant ^ "/" ^ j.Workload.job_label ^ " completed")
        (Workload.status_to_string Workload.Completed)
        (Workload.status_to_string j.Workload.status);
      check id_list (tenant ^ "/" ^ j.Workload.job_label) want (ids_of j.Workload.nodes))
    r.Shard.jobs;
  check Alcotest.int "one stat row per tenant" (List.length names)
    (List.length r.Shard.tenant_stats);
  check Alcotest.int "one stat row per shard" 2 (List.length r.Shard.shard_stats);
  List.iter
    (fun (ts : Shard.tenant_stat) ->
      check Alcotest.int (ts.Shard.tenant ^ " job count") 4 ts.Shard.jobs;
      check Alcotest.bool (ts.Shard.tenant ^ " was served") true (ts.Shard.served_ticks > 0);
      check Alcotest.bool (ts.Shard.tenant ^ " p99 dominates p50") true
        (ts.Shard.p99 >= ts.Shard.p50))
    r.Shard.tenant_stats;
  check Alcotest.bool "ran concurrently" true (r.Shard.max_concurrent > 1);
  check Alcotest.bool "balancer turns advanced" true (r.Shard.turns > 0);
  let shard_reads =
    List.fold_left (fun a (s : Shard.shard_stat) -> a + s.Shard.page_reads) 0 r.Shard.shard_stats
  in
  check Alcotest.int "shard rows aggregate to the engine total" r.Shard.page_reads shard_reads

(* The per-tenant front door: a repeated statement from the same tenant
   is answered from the result cache at admission, while the identical
   statement from a co-located tenant recomputes — entries key on the
   tenant store's uid and content digest. *)
let shard_front_door_is_per_tenant () =
  let t = topology () in
  let caching = { validating with Context.result_cache = true } in
  Result_cache.clear ();
  Result_cache.reset_stats ();
  let q = spec "q" "/child::*/child::x" (Plan.xschedule ()) in
  let repeat = [| [ { Shard.tenant = "alpha"; spec = q }; { Shard.tenant = "alpha"; spec = q } ] |] in
  let r = Shard.run_clients ~config:caching ~cold:true t repeat in
  check Alcotest.(list string) "clean end" [] r.Shard.violations;
  check Alcotest.int "the repeat is a front-door hit" 1 r.Shard.cache_hits;
  let r2 =
    Shard.run_clients ~config:caching ~cold:false t
      [| [ { Shard.tenant = "beta"; spec = q } ] |]
  in
  check Alcotest.int "a neighbour never borrows the answer" 0 r2.Shard.cache_hits;
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* One shard holding one tenant is the single-pool engine: job for job,
   the sharded run reproduces Workload.run_clients on an identically
   built store — ids, status, timestamps, fairness ticks, yields and
   boosts. *)
let one_shard_matches_single_pool () =
  let tree = doc () in
  let t = Shard.create ~capacity:16 ~page_size:256 ~payload:96 ~shards:1 [ ("solo", tree) ] in
  let store = build ~capacity:16 tree in
  let clients = [| mix (); List.rev (mix ()); [ List.hd (mix ()) ] |] in
  let tjobs = Array.map (List.map (fun s -> { Shard.tenant = "solo"; spec = s })) clients in
  let sharded = Shard.run_clients ~config:validating ~cold:true t tjobs in
  let single = Workload.run_clients ~config:validating ~cold:true store clients in
  let show (j : Workload.job) =
    Format.asprintf "%s c%d %s %h/%h/%h served %d starved %d yields %d boosts %d %a"
      j.Workload.job_label j.Workload.client
      (Workload.status_to_string j.Workload.status)
      j.Workload.submitted j.Workload.started j.Workload.finished j.Workload.served_ticks
      j.Workload.starved_ticks j.Workload.yields j.Workload.boosts
      (Fmt.Dump.list Node_id.pp) (ids_of j.Workload.nodes)
  in
  check Alcotest.(list string) "job for job"
    (List.map show single.Workload.jobs)
    (List.map (fun (_, j) -> show j) sharded.Shard.jobs);
  check Alcotest.int "same turns" single.Workload.turns sharded.Shard.turns;
  check Alcotest.int "the gate never fires with one tenant" 0 sharded.Shard.rebalance_moves

(* Shared-scan dedup is per tenant: of two clients sending the same
   statement to one tenant, one rides the other's scan, and both answers
   equal a serial cold run; the identical statement sent to a
   co-located tenant runs its own scan. *)
let shard_dedup_is_per_tenant () =
  let t = topology ~shards:1 () in
  let caching = { validating with Context.result_cache = true } in
  Result_cache.clear ();
  let q = spec "q" "/child::*/child::x" (Plan.xschedule ()) in
  let serial name = serial_ids (Shard.store t name) validating q in
  let want_alpha = serial "alpha" and want_beta = serial "beta" in
  let job tenant = [ { Shard.tenant; spec = q } ] in
  let r =
    Shard.run_clients ~config:caching ~cold:true t [| job "alpha"; job "alpha"; job "beta" |]
  in
  check Alcotest.(list string) "clean end" [] r.Shard.violations;
  let mine name = List.filter_map (fun (n, j) -> if n = name then Some j else None) r.Shard.jobs in
  let shared js = List.length (List.filter (fun (j : Workload.job) -> j.Workload.shared) js) in
  check Alcotest.int "one alpha job rides the other's scan" 1 (shared (mine "alpha"));
  List.iter
    (fun (j : Workload.job) -> check id_list "alpha answer" want_alpha (ids_of j.Workload.nodes))
    (mine "alpha");
  check Alcotest.int "the co-located tenant is not shared" 0 (shared (mine "beta"));
  List.iter
    (fun (j : Workload.job) -> check id_list "beta answer" want_beta (ids_of j.Workload.nodes))
    (mine "beta");
  Result_cache.clear ();
  Result_cache.reset_stats ()

(* --- the paper's query mix on XMark ----------------------------------------- *)

module Xmark = Xnav_xmark.Gen
module Queries = Xnav_xmark.Queries

(* XMark at fidelity 0.005 on 4-KiB pages (190 pages). With 32 frames
   the pool is smaller than the store, so page reads measure sharing;
   with 256 it holds the whole store. *)
let xmark_store ~capacity =
  let doc =
    Xmark.generate ~config:{ Xmark.default_config with Xmark.scale = 1.0; fidelity = 0.005 } ()
  in
  let disk = Disk.create ~config:{ Disk.default_config with Disk.page_size = 4096 } () in
  let import = Import.run disk doc in
  (Store.attach (Buffer_manager.create ~capacity disk) import, import)

(* Every path of q6'/q7/q15, labelled "q7.1" and so on. *)
let paper_variants () =
  List.concat_map
    (fun (q : Queries.t) ->
      List.mapi (fun i path -> (Printf.sprintf "%s.%d" q.Queries.name i, path)) q.Queries.paths)
    [ Queries.q6'; Queries.q7; Queries.q15 ]

(* A reader job planned as in Sec. 6.2: XSchedule, speculation off. *)
let paper_spec ?(plan = Plan.xschedule ~speculative:false ()) ?(ops = []) (label, path) =
  { Workload.label; path; plan; timeout = None; ops }

(* Client [i] works through the mix rotated by [i], so the clients are
   out of phase and every query meets contention. *)
let rotated_clients n mix =
  Array.init n (fun i ->
      let k = i mod List.length mix in
      List.filteri (fun j _ -> j >= k) mix @ List.filteri (fun j _ -> j < k) mix)

let p99 jobs =
  Workload.percentile (List.map (fun (j : Workload.job) -> j.Workload.latency) jobs) 99.0

(* The gate every run below passes: every submitted job came back, the
   invariant sweep is clean and no frame is left pinned. *)
let check_clean what ~jobs ~violations ~got pools =
  check Alcotest.int (what ^ ": every job came back") jobs got;
  check Alcotest.(list string) (what ^ ": no invariant violations") [] violations;
  List.iter
    (fun b -> check Alcotest.int (what ^ ": no pinned frame") 0 (Buffer_manager.pinned_count b))
    pools

(* Eight closed-loop clients over a pool smaller than the store must
   read fewer pages than eight independent serial passes of the mix, or
   the session layer shares no I/O across queries. *)
let paper_mix_shares_page_reads () =
  let store, _ = xmark_store ~capacity:32 in
  let mix = List.map paper_spec (paper_variants ()) in
  let serial =
    List.fold_left
      (fun acc (s : Workload.spec) ->
        acc
        + (Exec.cold_run ~config:validating ~ordered:false store s.Workload.path s.Workload.plan)
            .Exec.metrics.Exec.page_reads)
      0 mix
  in
  let clients = 8 in
  let r = Workload.run_clients ~config:validating ~cold:true store (rotated_clients clients mix) in
  check_clean "paper mix" ~jobs:(clients * List.length mix) ~violations:r.Workload.violations
    ~got:(List.length r.Workload.jobs) [ Store.buffer store ];
  Printf.printf "page reads %d, budget %d (%d clients x %d serial)\n" r.Workload.page_reads
    (clients * serial) clients serial;
  check Alcotest.bool "concurrent page reads < clients x serial" true
    (r.Workload.page_reads < clients * serial)

(* Two writer clients committing in-place inserts and deletes beside the
   eight readers (result cache on, so commits stale cached footprints):
   the writers must commit, and the readers' p99 must stay within an
   order of magnitude of the same readers' writer-free p99. *)
let writers_keep_reader_tail_bounded () =
  let store, import = xmark_store ~capacity:32 in
  let caching = { validating with Context.result_cache = true } in
  let readers = rotated_clients 8 (List.map paper_spec (paper_variants ())) in
  Result_cache.clear ();
  let base = p99 (Workload.run_clients ~config:caching ~cold:true store readers).Workload.jobs in
  Result_cache.clear ();
  (* Each writer alternates inserts and deletes over a stride of the
     imported elements (never the root). *)
  let ids = import.Import.node_ids in
  let n = Array.length ids in
  let writer w =
    let ops =
      List.init 6 (fun i ->
          let id = ids.(1 + ((((w * 6) + i) * 7919) mod (n - 1))) in
          if i mod 2 = 0 then Workload.Insert_child { parent = id; tag = Tag.of_string "w" }
          else Workload.Delete_subtree id)
    in
    let path = (List.hd readers.(0)).Workload.path in
    [ paper_spec ~plan:Plan.simple ~ops (Printf.sprintf "writer.%d" w, path) ]
  in
  let queues = Array.append readers [| writer 0; writer 1 |] in
  let r = Workload.run_clients ~config:caching ~cold:true store queues in
  Result_cache.clear ();
  check_clean "writer mix"
    ~jobs:(Array.fold_left (fun a q -> a + List.length q) 0 queues)
    ~violations:r.Workload.violations ~got:(List.length r.Workload.jobs) [ Store.buffer store ];
  check Alcotest.bool "the writers committed" true (r.Workload.writer_commits >= 1);
  let reader_p99 =
    p99
      (List.filter
         (fun (j : Workload.job) -> not (String.starts_with ~prefix:"writer." j.Workload.job_label))
         r.Workload.jobs)
  in
  Printf.printf "%d commits; reader p99 %.4fs, writer-free %.4fs, bound %.4fs\n"
    r.Workload.writer_commits reader_p99 base ((10.0 *. base) +. 1.0);
  check Alcotest.bool "reader p99 <= 10 x writer-free p99 + 1s" true
    (reader_p99 <= (10.0 *. base) +. 1.0)

(* Zipf(1.1) repeat traffic over the mix's variants: closed-loop queues
   drawn with a fixed 48-bit LCG, so every run draws the same jobs. *)
let zipf_clients ~clients ~per_client =
  let variants = Array.of_list (paper_variants ()) in
  let n = Array.length variants in
  let weights = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let state = ref 0x1234ABCD330E in
  let next () =
    state := ((!state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    float_of_int (!state lsr 17) /. float_of_int 0x80000000
  in
  Array.init clients (fun c ->
      List.init per_client (fun j ->
          let u = next () *. total in
          let rec pick r acc =
            let acc = acc +. weights.(r) in
            if u <= acc || r = n - 1 then r else pick (r + 1) acc
          in
          let label, path = variants.(pick 0 0.0) in
          paper_spec (Printf.sprintf "%s#c%d.%d" label c j, path)))

(* The cache-off/cache-on lookup ratio this workload measures (60 510
   against 1 450). The test lets it fall by at most 2.25x, the margin
   of the served/s backstop the counter gate replaced (1 + 5 x 25%). *)
let zipf_lookup_ratio = 60510.0 /. 1450.0

(* The result-cache front door must pay for itself by an order of
   magnitude on repeat traffic, counted in buffer lookups — the paper's
   swizzling-cost proxy — so the verdict reads no host clock. *)
let front_door_cuts_repeat_work () =
  let store, _ = xmark_store ~capacity:256 in
  let clients = 8 and per_client = 32 in
  let queues = zipf_clients ~clients ~per_client in
  let jobs = clients * per_client in
  let run cache =
    Result_cache.clear ();
    let r =
      Workload.run_clients ~config:{ validating with Context.result_cache = cache } ~cold:true
        store queues
    in
    Result_cache.clear ();
    check_clean
      (if cache then "cache on" else "cache off")
      ~jobs ~violations:r.Workload.violations ~got:(List.length r.Workload.jobs)
      [ Store.buffer store ];
    (r, (Buffer_manager.stats (Store.buffer store)).Buffer_manager.lookups)
  in
  let off, lookups_off = run false in
  check Alcotest.int "cache off never touches the front door" 0
    (off.Workload.cache_hits + off.Workload.shared_jobs + off.Workload.cache_misses);
  let on, lookups_on = run true in
  check Alcotest.int "hits + shared scans + installs = jobs" jobs
    (on.Workload.cache_hits + on.Workload.shared_jobs + on.Workload.cache_misses);
  let ratio = float_of_int lookups_off /. float_of_int (max 1 lookups_on) in
  Printf.printf "buffer lookups: %d off, %d on (%.1fx); page reads %d off, %d on\n" lookups_off
    lookups_on ratio off.Workload.page_reads on.Workload.page_reads;
  check Alcotest.bool "cache on does >= 10x fewer buffer lookups" true (ratio >= 10.0);
  check Alcotest.bool "the lookup ratio holds >= its measured value / 2.25" true
    (ratio >= zipf_lookup_ratio /. 2.25)

(* Sixteen XMark tenants placed on [shards] shards of 256 frames. *)
let tenant = Printf.sprintf "tenant-%02d"

let xmark_tenants shards =
  Shard.create ~capacity:256 ~page_size:4096 ~shards
    (List.init 16 (fun i ->
         ( tenant i,
           Xmark.generate
             ~config:
               { Xmark.scale = 1.0; fidelity = 0.002; seed = Xmark.default_config.Xmark.seed + i }
             () )))

(* Eight closed-loop clients under 2Q, client [i] pinned to tenant [i],
   each running four jobs of the paper mix plus an antagonistic XScan
   sweep. No active tenant's tail may collapse against the median
   tenant's (the 1 s floor keeps a near-zero median from tripping the
   gate), and four shards must not lose to the same jobs colocated on
   one. *)
let sharded_tenants_stay_fair () =
  let config = { validating with Context.scan_resistant = true } in
  let scan = paper_spec ~plan:(Plan.xscan ()) ("scan", List.hd Queries.q7.Queries.paths) in
  let clients =
    Array.mapi
      (fun i q ->
        List.filteri (fun j _ -> j < 4) q
        |> List.map (fun spec -> { Shard.tenant = tenant i; spec }))
      (rotated_clients 8 (List.map paper_spec (paper_variants ()) @ [ scan ]))
  in
  let run shards =
    let t = xmark_tenants shards in
    let r = Shard.run_clients ~config ~cold:true t clients in
    check_clean
      (Printf.sprintf "%d shards" shards)
      ~jobs:32 ~violations:r.Shard.violations ~got:(List.length r.Shard.jobs)
      (List.init 8 (fun i -> Store.buffer (Shard.store t (tenant i))));
    r
  in
  let wall (r : Shard.result) =
    List.fold_left (fun a (s : Shard.shard_stat) -> Float.max a s.Shard.io_time) 0.0
      r.Shard.shard_stats
  in
  let r = run 4 and single = run 1 in
  let p99s =
    List.filter_map
      (fun (ts : Shard.tenant_stat) -> if ts.Shard.jobs > 0 then Some ts.Shard.p99 else None)
      r.Shard.tenant_stats
  in
  let worst = List.fold_left Float.max 0.0 p99s and median = Workload.percentile p99s 50.0 in
  Printf.printf "tenant p99 %.4fs, median %.4fs, bound %.4fs; wall %.4fs, single-shard %.4fs\n"
    worst median ((10.0 *. median) +. 1.0) (wall r) (wall single);
  check Alcotest.bool "tenant p99 <= 10 x tenant median + 1s" true
    (worst <= (10.0 *. median) +. 1.0);
  check Alcotest.bool "4-shard wall <= 1.05 x single-shard wall" true
    (wall r <= (wall single *. 1.05) +. 1e-6)

let percentiles_are_nearest_rank () =
  let xs = [ 4.0; 1.0; 3.0; 2.0; 5.0 ] in
  check (Alcotest.float 1e-9) "p50" 3.0 (Workload.percentile xs 50.0);
  check (Alcotest.float 1e-9) "p95" 5.0 (Workload.percentile xs 95.0);
  check (Alcotest.float 1e-9) "p99" 5.0 (Workload.percentile xs 99.0);
  check (Alcotest.float 1e-9) "empty" 0.0 (Workload.percentile [] 50.0)

let suite =
  [
    ( "workload",
      [
        Alcotest.test_case "concurrent mix equals serial per query" `Quick
          concurrent_equals_serial;
        Alcotest.test_case "admission scales with pool capacity" `Quick
          admission_scales_with_capacity;
        Alcotest.test_case "timeout unwinds through abort_async" `Quick timeout_unwinds_cleanly;
        Alcotest.test_case "fairness counters advance under contention" `Quick
          fairness_counters_advance;
        Alcotest.test_case "closed-loop clients drain their job queues" `Quick
          closed_loop_clients_drain;
        Alcotest.test_case "writer mix commits and replays serially" `Quick
          writer_mix_commits_and_replays;
        Alcotest.test_case "a conflicting commit restarts the reader's snapshot" `Quick
          snapshot_conflict_restarts_reader;
        Alcotest.test_case "untouched paths keep hitting the cache across commits" `Quick
          untouched_paths_keep_hitting_across_commits;
        Alcotest.test_case "a covering index reader replays serially" `Quick
          covering_index_reader_replays_serially;
        Alcotest.test_case "latency percentiles use nearest rank" `Quick
          percentiles_are_nearest_rank;
        Alcotest.test_case "the paper mix shares page reads across clients" `Quick
          paper_mix_shares_page_reads;
        Alcotest.test_case "writers keep the readers' p99 bounded" `Quick
          writers_keep_reader_tail_bounded;
        Alcotest.test_case "the front door cuts repeat work tenfold" `Quick
          front_door_cuts_repeat_work;
      ] );
    ( "workload.shards",
      [
        Alcotest.test_case "tenant placement is a stable hash" `Quick
          stable_placement_is_deterministic;
        Alcotest.test_case "writer specs and unknown tenants are rejected" `Quick
          shard_rejects_writers_and_strangers;
        Alcotest.test_case "sharded mix equals serial per tenant and query" `Quick
          sharded_mix_equals_serial;
        Alcotest.test_case "the front door is per-tenant" `Quick shard_front_door_is_per_tenant;
        Alcotest.test_case "one shard, one tenant is the single pool" `Quick
          one_shard_matches_single_pool;
        Alcotest.test_case "shared-scan dedup is per tenant" `Quick shard_dedup_is_per_tenant;
        Alcotest.test_case "sharded tenants stay fair and beat colocation" `Quick
          sharded_tenants_stay_fair;
      ] );
  ]

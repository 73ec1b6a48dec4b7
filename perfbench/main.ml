(* The repository's benchmark: closed-loop workloads, end-to-end metrics
   on two clocks kept apart, and per-layer numbers read from outside the
   library.

   - The simulated clock is the Disk model's seconds: deterministic for
     a seed, it moves with plan choice, I/O order, sharing and caching.
   - The host clock is wall time; the simulated disk never sleeps, so
     host time is the CPU cost of every layer.

   Usage (normally through run.py, which builds this program and checks
   its output):
     main.exe --workload paper-cold --seed 1 --seconds 20 --trace 0 --out result.json

   A run derives its documents and request sequences from --seed, then
   repeats timed repetitions (each replays one sequence) until --seconds
   are spent and every sequence ran. Host numbers are medians over
   repetitions; simulated numbers pool one repetition of each sequence,
   and later repetitions of a sequence must repeat them exactly. Set-ups
   are timed several times, between repetitions. Answers are checked
   outside the timed sections. With --trace 1 the time is split between
   an untraced and a traced phase over the first sequence; spans of the
   traced phase go to --trace-file and the per-layer numbers come from
   it. *)

module Tree = Xnav_xml.Tree
module Ordpath = Xnav_xml.Ordpath
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Update = Xnav_store.Update
module Path = Xnav_xpath.Path
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Compile = Xnav_core.Compile
module Context = Xnav_core.Context
module Result_cache = Xnav_core.Result_cache
module Workload = Xnav_workload.Workload
module Shard = Xnav_workload.Shard
open Util

(* --- what a workload provides ---------------------------------------------- *)

type rep = {
  inst : int;  (** Which of the run's request sequences this repetition replayed. *)
  host_s : float;  (** Wall time of the timed section. *)
  lat : float array;
      (** Simulated latency per request that reached the engine, in
          completion order. Result-cache hits at admission take no
          simulated time by construction and are left out; their share
          is result_cache.hit_ratio. *)
  makespan : float;  (** Simulated seconds of the whole repetition. *)
  answers : Docs.answer option array;
      (** Per returned request, completion order; [None] if it raised or
          timed out. *)
  labels : string array;  (** Request index (or writer label) per returned request. *)
  finish : int array;  (** Commits that preceded each returned request. *)
  commits : Workload.update_op list;  (** Committed writes, in commit order. *)
  layers : (string * float) list;  (** Per-layer numbers, when asked for. *)
}

let empty_rep inst =
  {
    inst;
    host_s = 0.0;
    lat = [||];
    makespan = 0.0;
    answers = [||];
    labels = [||];
    finish = [||];
    commits = [];
    layers = [];
  }

type prepared = {
  sizes : (string * float) list;
  requests : int;  (** Per repetition. *)
  instances : int;  (** Request sequences per run. *)
  rep : inst:int -> layers:bool -> rep;
  check : rep -> int;  (** Returned answers that differ from the reference. *)
  probe : unit -> (string * float) list;  (** Extra per-layer numbers (traced phase). *)
  digest : int;  (** Of the request sequences: equal seeds give equal sequences. *)
}

type workload = {
  name : string;
  setup : seed:int -> unit -> unit -> prepared;
      (** [setup ~seed ()] is the timed set-up (generate, import, attach);
          applying its result prepares requests and references, untimed. *)
}

let config_cache = { Context.default_config with Context.result_cache = true }
let digest_texts texts = List.fold_left (fun h t -> mix h (text_hash t)) fnv_init texts

(* Requests that raised, timed out or never came back. *)
let lost (p : prepared) r =
  let unanswered = Array.fold_left (fun a x -> if x = None then a + 1 else a) 0 r.answers in
  p.requests - Array.length r.answers + unanswered

let job_answer (j : Workload.job) =
  if j.Workload.status = Workload.Timed_out then None
  else Some (Docs.answer_of_infos j.Workload.nodes)

let engine_latencies jobs =
  Array.to_list jobs
  |> List.filter_map (fun (j : Workload.job) ->
         if j.Workload.cache_hit then None else Some j.Workload.latency)
  |> Array.of_list

(* Returned answers that differ from [expected label]. *)
let mismatches r expected =
  let bad = ref 0 in
  Array.iteri
    (fun i a -> match a with Some a when a <> expected r.labels.(i) -> incr bad | _ -> ())
    r.answers;
  !bad

let ms x = x *. 1000.0

(* --- per-layer helpers ----------------------------------------------------- *)

let plan_kind = function
  | Plan.Simple _ -> "simple"
  | Plan.Reordered { io = Plan.Io_schedule _; _ } -> "xschedule"
  | Plan.Reordered { io = Plan.Io_scan; _ } -> "xscan"
  | Plan.Reordered { io = Plan.Io_index _; _ } -> "xindex"

let plan_mix plans =
  let n = List.length plans in
  List.map
    (fun k ->
      let chosen = List.length (List.filter (fun p -> plan_kind p = k) plans) in
      ("compile.plan_mix." ^ k, fratio chosen n))
    [ "simple"; "xschedule"; "xscan"; "xindex" ]

let estimate_term (e : Compile.estimate) plan =
  match plan_kind plan with
  | "simple" -> e.Compile.cost_simple
  | "xschedule" -> e.Compile.cost_schedule
  | "xscan" -> e.Compile.cost_scan
  | _ -> e.Compile.cost_index

(* Chosen term's estimate over measured simulated seconds, median over
   runs that read at least one page. *)
let est_ratio runs =
  let rs =
    List.filter_map
      (fun (est, io) -> if io > 0.0 && Float.is_finite est then Some (est /. io) else None)
      runs
  in
  [ ("compile.est_ratio_p50", median rs) ]

(* Work counts of solo runs: (result, minor words allocated). *)
let exec_layers (runs : (Exec.result * float) list) =
  let q = List.length runs in
  let sum f = List.fold_left (fun a ((r : Exec.result), _) -> a + f r.Exec.metrics) 0 runs in
  let results = List.fold_left (fun a ((r : Exec.result), _) -> a + r.Exec.count) 0 runs in
  let words = List.fold_left (fun a (_, w) -> a +. w) 0.0 runs in
  let sw_hits = sum (fun m -> m.Exec.swizzle_hits) in
  let sw_misses = sum (fun m -> m.Exec.swizzle_misses) in
  [
    ("exec.alloc_words_per_q", ratio words (float_of_int q));
    ("exec.instances_per_result", fratio (sum (fun m -> m.Exec.instances)) results);
    ("exec.fused_transitions_per_result", fratio (sum (fun m -> m.Exec.fused_transitions)) results);
    ("exec.crossings_per_q", fratio (sum (fun m -> m.Exec.crossings)) q);
    ("exec.clusters_per_q", fratio (sum (fun m -> m.Exec.clusters_visited)) q);
    ("exec.index_entries_per_q", fratio (sum (fun m -> m.Exec.index_entries)) q);
    ( "exec.spec_resolve_ratio",
      fratio (sum (fun m -> m.Exec.specs_resolved)) (sum (fun m -> m.Exec.specs_stored)) );
    ("exec.fallbacks", float_of_int (sum (fun m -> if m.Exec.fell_back then 1 else 0)));
    ("store.swizzle_hit_ratio", fratio sw_hits (sw_hits + sw_misses));
  ]

type io_totals = {
  q : int;
  lookups : int;
  hits : int;
  misses : int;
  evictions : int;
  scan_resist : int;
  batched : int;
  batch_pages : int;
  coalesce : int;
  reads : int;
  random : int;
  seek : int;
  sim_io : float;
}

let io_layers t =
  [
    ("buffer.lookups_per_q", fratio t.lookups t.q);
    ("buffer.hit_ratio", fratio t.hits (t.hits + t.misses));
    ("buffer.evictions_per_q", fratio t.evictions t.q);
    ("buffer.scan_resist_hits", float_of_int t.scan_resist);
    ("io_scheduler.pages_per_batch", fratio t.batch_pages t.batched);
    ("io_scheduler.coalesce_ratio", fratio t.coalesce t.batched);
    ("disk.reads_per_q", fratio t.reads t.q);
    ("disk.random_frac", fratio t.random t.reads);
    ("disk.seek_pages_per_random", fratio t.seek t.random);
    ("disk.sim_io_s", t.sim_io);
  ]

(* I/O totals of a set of pools after an engine run, which reset them
   cold at its start. *)
let pool_totals ~q ~sim_io buffers =
  List.fold_left
    (fun t b ->
      let s = Buffer_manager.stats b and d = Disk.stats (Buffer_manager.disk b) in
      {
        t with
        lookups = t.lookups + s.Buffer_manager.lookups;
        hits = t.hits + s.Buffer_manager.hits;
        misses = t.misses + s.Buffer_manager.misses;
        evictions = t.evictions + s.Buffer_manager.evictions;
        scan_resist = t.scan_resist + s.Buffer_manager.scan_resist_hits;
        batched = t.batched + d.Disk.batched_reads;
        batch_pages = t.batch_pages + d.Disk.batch_pages;
        coalesce = t.coalesce + d.Disk.coalesce_runs;
        reads = t.reads + d.Disk.reads;
        random = t.random + d.Disk.random_reads;
        seek = t.seek + d.Disk.seek_distance;
      })
    {
      q;
      lookups = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      scan_resist = 0;
      batched = 0;
      batch_pages = 0;
      coalesce = 0;
      reads = 0;
      random = 0;
      seek = 0;
      sim_io;
    }
    buffers

let cache_layers () =
  let s = Result_cache.stats () in
  [
    ( "result_cache.hit_ratio",
      fratio s.Result_cache.hits (s.Result_cache.hits + s.Result_cache.misses) );
    ("result_cache.evictions", float_of_int s.Result_cache.evictions);
    ("result_cache.stales", float_of_int s.Result_cache.stales);
  ]

(* Engine-side numbers of a Workload or Shard run. *)
let job_layers ~turns ~max_concurrent (jobs : Workload.job list) =
  let n = List.length jobs in
  let count f = List.fold_left (fun a j -> if f j then a + 1 else a) 0 jobs in
  let sum f = List.fold_left (fun a j -> a + f j) 0 jobs in
  let pin = Array.of_list (List.map (fun (j : Workload.job) -> j.Workload.pin_wait) jobs) in
  [
    ("workload.turns_per_job", fratio turns n);
    ("workload.yields", float_of_int (sum (fun j -> j.Workload.yields)));
    ("workload.boosts", float_of_int (sum (fun j -> j.Workload.boosts)));
    ("workload.shared_jobs", float_of_int (count (fun j -> j.Workload.shared)));
    ("workload.max_concurrent", float_of_int max_concurrent);
    ("workload.pin_wait_tail_ms", ms (percentile pin (tail_pct n)));
    ("workload.recovered", float_of_int (count (fun j -> j.Workload.status = Workload.Recovered)));
  ]

(* Solo cold runs (cache off) of the [k] most requested statements: the
   exec and store layers' work counts, and the planner's estimate against
   the simulated seconds it predicts, for engine workloads where a job's
   own simulated cost is not separable. *)
let exec_probe ~k (targets : (Store.t * string) list) =
  let freq = Hashtbl.create 256 in
  List.iter
    (fun (store, text) ->
      let key = (Store.uid store, text) in
      let n = Option.fold ~none:0 ~some:snd (Hashtbl.find_opt freq key) in
      Hashtbl.replace freq key (store, n + 1))
    targets;
  let ranked =
    Hashtbl.fold (fun (_, text) (store, n) acc -> (n, text, store) :: acc) freq []
    |> List.sort (fun (a, t, _) (b, u, _) -> compare (b, t) (a, u))
    |> List.filteri (fun i _ -> i < k)
  in
  let runs =
    List.map
      (fun (_, text, store) ->
        let path, plan = Compile.plan_for store (Docs.path_of text) in
        let w0 = Gc.minor_words () in
        let r = Span.run "exec" (fun () -> Exec.cold_run store path plan) in
        let words = Gc.minor_words () -. w0 in
        let est = estimate_term (Compile.estimate store path) plan in
        ((r, words), (est, r.Exec.metrics.Exec.io_time)))
      ranked
  in
  exec_layers (List.map fst runs) @ est_ratio (List.map snd runs)

(* --- paper-cold ------------------------------------------------------------ *)

(* The paper's experiment: the five Q6'/Q7/Q15 paths under each plan,
   every run cold (buffer and disk clock reset), one client. *)
let paper_texts =
  [|
    "/site/regions//item";
    "/site//description";
    "/site//annotation";
    "/site//email";
    "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist\
     /listitem/text/emph/keyword";
  |]

(* [None] is Auto. *)
let paper_plans =
  [
    Some Plan.simple;
    Some (Plan.xschedule ~speculative:false ());
    Some (Plan.xscan ());
    Some (Plan.xindex ());
    None;
  ]

type paper_run = {
  result : Exec.result;
  words : float;
  path : Path.t;
  plan : Plan.t;
  evictions : int;
}

let paper_layers store reqs (out : paper_run option array) lat =
  let indexed = List.mapi (fun i o -> (reqs.(i), o)) (Array.to_list out) in
  let done_ = List.filter_map snd indexed in
  let auto = List.filter_map (fun ((_, p), o) -> if p = None then o else None) indexed in
  let sum f = List.fold_left (fun a r -> a + f r.result.Exec.metrics) 0 done_ in
  (* Per path: Auto's simulated seconds over the best forced plan's,
     both floored below one page transfer. *)
  let regret =
    List.init (Array.length paper_texts) (fun pi ->
        let ios auto =
          Array.to_list lat
          |> List.filteri (fun i _ -> fst reqs.(i) = pi && Option.is_none (snd reqs.(i)) = auto)
        in
        let best = List.fold_left Float.min infinity (ios false) in
        let chosen = List.fold_left Float.max 0.0 (ios true) in
        Float.max chosen 1e-4 /. Float.max best 1e-4)
  in
  let estimated r = estimate_term (Compile.estimate store r.path) r.plan in
  plan_mix (List.map (fun r -> r.plan) auto)
  @ est_ratio (List.map (fun r -> (estimated r, r.result.Exec.metrics.Exec.io_time)) auto)
  @ [ ("compile.auto_regret", median regret) ]
  @ exec_layers (List.map (fun r -> (r.result, r.words)) done_)
  @ io_layers
      {
        q = Array.length out;
        lookups = sum (fun m -> m.Exec.buffer_lookups);
        hits = sum (fun m -> m.Exec.buffer_hits);
        misses = sum (fun m -> m.Exec.buffer_misses);
        evictions = List.fold_left (fun a r -> a + r.evictions) 0 done_;
        scan_resist = sum (fun m -> m.Exec.scan_resist_hits);
        batched = sum (fun m -> m.Exec.batched_reads);
        batch_pages = sum (fun m -> m.Exec.batch_pages);
        coalesce = sum (fun m -> m.Exec.coalesce_runs);
        reads = sum (fun m -> m.Exec.page_reads);
        random = sum (fun m -> m.Exec.random_reads);
        seek = sum (fun m -> m.Exec.seek_distance);
        sim_io = Array.fold_left ( +. ) 0.0 lat;
      }

let paper_cold =
  let fidelity = 0.02 and frames = 64 in
  let setup ~seed () =
    let doc = Docs.generate ~fidelity ~seed in
    let disk, imp = Docs.import doc in
    let store = Docs.attach ~capacity:frames disk imp in
    fun () ->
      let labels = Docs.labels_of doc in
      let reference =
        Array.map (fun t -> Docs.eval_ref labels doc (Docs.path_of t)) paper_texts
      in
      let reqs =
        Array.of_list
          (List.concat_map
             (fun p -> List.init (Array.length paper_texts) (fun i -> (i, p)))
             paper_plans)
      in
      Rng.shuffle (Rng.create seed) reqs;
      let n = Array.length reqs in
      let one req (pi, forced) =
        let path = Docs.parse ~req paper_texts.(pi) in
        let path, plan =
          match forced with
          | Some plan -> (path, plan)
          | None -> Span.run ~req "plan" (fun () -> Compile.plan_for store path)
        in
        let w0 = Gc.minor_words () in
        let result = Span.run ~req "exec" (fun () -> Exec.cold_run store path plan) in
        let words = Gc.minor_words () -. w0 in
        let evictions = (Buffer_manager.stats (Store.buffer store)).Buffer_manager.evictions in
        { result; words; path; plan; evictions }
      in
      let rep ~inst ~layers =
        let out = Array.make n None in
        let t0 = now () in
        Array.iteri (fun i req -> out.(i) <- (try Some (one i req) with _ -> None)) reqs;
        let host_s = now () -. t0 in
        let lat =
          Array.map (function Some r -> r.result.Exec.metrics.Exec.io_time | None -> 0.0) out
        in
        {
          (empty_rep inst) with
          host_s;
          lat;
          makespan = Array.fold_left ( +. ) 0.0 lat;
          answers = Array.map (Option.map (fun r -> Docs.answer_of_infos r.result.Exec.nodes)) out;
          labels = Array.map (fun (pi, _) -> string_of_int pi) reqs;
          layers = (if layers then paper_layers store reqs out lat else []);
        }
      in
      let plan_name = Option.fold ~none:"auto" ~some:Plan.name in
      {
        sizes =
          [
            ("pages", float_of_int (Store.page_count store));
            ("nodes", float_of_int (Store.node_count store));
            ("pool_frames", float_of_int frames);
            ("cache_capacity", 0.0);
            ("vocabulary", float_of_int (Array.length paper_texts));
            ("clients", 1.0);
          ];
        requests = n;
        instances = 1;
        rep;
        check = (fun r -> mismatches r (fun l -> reference.(int_of_string l)));
        probe = (fun () -> []);
        digest =
          digest_texts
            (Array.to_list (Array.map (fun (pi, p) -> paper_texts.(pi) ^ plan_name p) reqs));
      }
  in
  { name = "paper-cold"; setup }

(* --- zipf-paths and read-write --------------------------------------------- *)

let zipf_s = 1.1
let zipf_instances = 24
let reader_clients = 8
let reads_per_client = 100
let writer_clients = 2
let writes_per_client = 4
let ops_per_write = 2

(* Closed-loop reader queues: Zipf draws over the vocabulary, dealt to
   the clients in order. *)
let reader_queues rng vocab ~offset =
  let weights = Docs.zipf_weights ~s:zipf_s vocab in
  let draws = weighted_draws ~weights ~count:(reader_clients * reads_per_client) ~offset rng in
  Array.init reader_clients (fun c ->
      Array.init reads_per_client (fun j -> vocab.(draws.((j * reader_clients) + c))))

(* Parse and plan every request of the repetition, as a front end would
   on arrival; labels carry the request index. *)
let reader_specs store queues =
  Array.mapi
    (fun c texts ->
      Array.to_list
        (Array.mapi
           (fun j text ->
             let req = (c * reads_per_client) + j in
             let path = Docs.parse ~req text in
             let path, plan = Span.run ~req "plan" (fun () -> Compile.plan_for store path) in
             { Workload.label = string_of_int req; path; plan; timeout = None; ops = [] })
           texts))
    queues

let writer_queues rng (imp : Import.result) tags =
  let ids = imp.Import.node_ids in
  let n = Array.length ids in
  let op _ =
    if Rng.int rng 2 = 0 then Workload.Delete_subtree ids.(1 + Rng.int rng (n - 1))
    else
      Workload.Insert_child
        { parent = ids.(Rng.int rng n); tag = tags.(Rng.int rng (Array.length tags)) }
  in
  Array.init writer_clients (fun w ->
      List.init writes_per_client (fun j ->
          {
            Workload.label = Printf.sprintf "w%d.%d" w j;
            path = [];
            plan = Plan.simple;
            timeout = None;
            ops = List.init ops_per_write op;
          }))

let is_writer label = label.[0] = 'w'

let op_text = function
  | Workload.Insert_child { parent; _ } -> "i" ^ Node_id.to_string parent
  | Workload.Delete_subtree v -> "d" ^ Node_id.to_string v

(* Serial replay of a repetition's commit log on a twin store, mirrored
   on a copy of the tree: each reader must match the oracle on the
   document as of its finish_commit. Returns the mismatching readers. *)
let replay_check ~doc ~frames ~text_of (r : rep) =
  let disk, timp = Docs.import doc in
  let twin = Docs.attach ~capacity:frames disk timp in
  let tree = Docs.copy_tree doc in
  let labels = Docs.labels_of doc in
  let node_of = Hashtbl.create 65536 in
  let rec index (t : Tree.t) =
    Hashtbl.replace node_of timp.Import.node_ids.(t.Tree.preorder) t;
    Array.iter index t.Tree.children
  in
  index tree;
  let apply = function
    | Workload.Insert_child { parent; tag } ->
      let id = Update.insert_element twin ~parent tag in
      let p = Hashtbl.find node_of parent in
      let leaf = Tree.leaf tag in
      let label = Ordpath.components (Store.info twin id).Store.ordpath in
      leaf.Tree.preorder <- Docs.add_label labels label;
      leaf.Tree.parent <- Some p;
      p.Tree.children <- Array.append p.Tree.children [| leaf |];
      Hashtbl.replace node_of id leaf
    | Workload.Delete_subtree v -> (
      ignore (Update.delete_subtree twin v);
      let t = Hashtbl.find node_of v in
      match t.Tree.parent with
      | Some p ->
        p.Tree.children <-
          Array.of_list (List.filter (fun c -> c != t) (Array.to_list p.Tree.children))
      | None -> ())
  in
  let order = Array.init (Array.length r.answers) Fun.id in
  Array.stable_sort (fun a b -> compare r.finish.(a) r.finish.(b)) order;
  let bad = ref 0 and applied = ref 0 and log = ref r.commits in
  let answer = ref (Docs.oracle labels tree) in
  Array.iter
    (fun i ->
      if !applied < r.finish.(i) then begin
        while !applied < r.finish.(i) do
          (match !log with
          | op :: rest ->
            log := rest;
            apply op
          | [] -> failwith "commit log shorter than a finish_commit");
          incr applied
        done;
        answer := Docs.oracle labels tree
      end;
      match (r.answers.(i), text_of r.labels.(i)) with
      | Some a, Some t when a <> !answer t -> incr bad
      | _ -> ())
    order;
  !bad

let zipf_family ~writes =
  let fidelity = 0.02 and frames = 96 and capacity = 256 in
  let setup ~seed () =
    let doc = Docs.generate ~fidelity ~seed in
    let disk, imp = Docs.import doc in
    let store = Docs.attach ~capacity:frames disk imp in
    fun () ->
      Result_cache.set_capacity capacity;
      let rng = Rng.create seed in
      let vocab = Docs.vocabulary imp.Import.partition in
      let tags = Array.of_list (List.map fst (Store.tag_counts store)) in
      (* The sequences' sampling offsets interleave, so the run as a whole
         draws one systematic sample of the Zipf mix. *)
      let u = Rng.float rng in
      let insts =
        Array.init zipf_instances (fun k ->
            let offset = (float_of_int k +. u) /. float_of_int zipf_instances in
            let queues = reader_queues rng vocab ~offset in
            let writers = if writes then writer_queues rng imp tags else [||] in
            (queues, Array.concat (Array.to_list queues), writers))
      in
      let labels = Docs.labels_of doc in
      let oracle = Docs.oracle labels doc in
      let disagree = List.length (Docs.cross_check ~rng ~k:4 labels doc vocab oracle) in
      let writer_requests = if writes then writer_clients * writes_per_client else 0 in
      let requests = (reader_clients * reads_per_client) + writer_requests in
      let rep ~inst ~layers =
        let queues, _, writers = insts.(inst) in
        (* Writers mutate the store, so each read-write repetition runs on
           a fresh import of the same document. *)
        let store =
          if writes then begin
            let disk, imp = Docs.import doc in
            Docs.attach ~capacity:frames disk imp
          end
          else store
        in
        Result_cache.clear ();
        Result_cache.reset_stats ();
        let t0 = now () in
        let readers = reader_specs store queues in
        let r =
          Span.run "run_clients" (fun () ->
              Workload.run_clients ~config:config_cache ~cold:true store
                (Array.append readers writers))
        in
        let host_s = now () -. t0 in
        let jobs = Array.of_list r.Workload.jobs in
        let layers =
          if not layers then []
          else begin
            let js = r.Workload.jobs in
            let writer_lat =
              List.filter_map
                (fun (j : Workload.job) ->
                  if is_writer j.Workload.job_label then Some j.Workload.latency else None)
                js
              |> Array.of_list
            in
            let commits = r.Workload.writer_commits in
            let plans =
              Array.to_list readers |> List.concat_map (List.map (fun s -> s.Workload.plan))
            in
            let io =
              pool_totals ~q:(List.length js) ~sim_io:r.Workload.io_time [ Store.buffer store ]
            in
            plan_mix plans @ cache_layers () @ io_layers io
            @ job_layers ~turns:r.Workload.turns ~max_concurrent:r.Workload.max_concurrent js
            @ [
                ("update.commits", float_of_int commits);
                ("update.commits_per_sim_s", ratio (float_of_int commits) r.Workload.io_time);
                ("update.latch_waits", float_of_int r.Workload.latch_waits);
                ("update.retries_per_commit", fratio r.Workload.snapshot_retries commits);
                ( "update.write_sim_tail_ms",
                  ms (percentile writer_lat (tail_pct (Array.length writer_lat))) );
              ]
          end
        in
        {
          inst;
          host_s;
          makespan = r.Workload.io_time;
          lat = engine_latencies jobs;
          answers = Array.map job_answer jobs;
          labels = Array.map (fun (j : Workload.job) -> j.Workload.job_label) jobs;
          finish = Array.map (fun (j : Workload.job) -> j.Workload.finish_commit) jobs;
          commits = r.Workload.commit_log;
          layers;
        }
      in
      let text_of inst l =
        if is_writer l then None
        else
          let _, texts, _ = insts.(inst) in
          Some texts.(int_of_string l)
      in
      let check r =
        let expected l = Option.fold ~none:Docs.empty_answer ~some:oracle (text_of r.inst l) in
        disagree
        + if writes then replay_check ~doc ~frames ~text_of:(text_of r.inst) r
          else mismatches r expected
      in
      let probe () =
        Result_cache.clear ();
        let _, texts, _ = insts.(0) in
        exec_probe ~k:24 (List.map (fun t -> (store, t)) (Array.to_list texts))
      in
      let sequence (_, texts, writers) =
        Array.to_list texts
        @ List.concat_map
            (List.concat_map (fun (s : Workload.spec) -> List.map op_text s.Workload.ops))
            (Array.to_list writers)
      in
      {
        sizes =
          [
            ("pages", float_of_int (Store.page_count store));
            ("nodes", float_of_int (Store.node_count store));
            ("pool_frames", float_of_int frames);
            ("cache_capacity", float_of_int capacity);
            ("vocabulary", float_of_int (Array.length vocab));
            ("clients", float_of_int (reader_clients + if writes then writer_clients else 0));
          ];
        requests;
        instances = zipf_instances;
        rep;
        check;
        probe;
        digest = digest_texts (List.concat_map sequence (Array.to_list insts));
      }
  in
  { name = (if writes then "read-write" else "zipf-paths"); setup }

(* --- tenants --------------------------------------------------------------- *)

let tenant_count = 16
let shard_count = 4
let tenant_clients = 32
let tenant_reads = 12
let tenant_fidelity = 0.006
let tenant_frames = 160
let tenant_instances = 32
let antagonist = "/site//description"

type tenant = {
  tname : string;
  tstore : Store.t;
  tvocab : string array;
  toracle : string -> Docs.answer;
}

(* Each client: Zipf draws over its home tenant's vocabulary plus one
   XScan sweep at a seeded position. Returns the client queues of (home
   tenant, [(statement, is the sweep)]) and the requests in index
   order. *)
let tenant_queues rng (tenants : tenant array) ~offset =
  let per_home = tenant_clients / tenant_count in
  let draws =
    Array.map
      (fun t ->
        let weights = Docs.zipf_weights ~s:zipf_s t.tvocab in
        weighted_draws ~weights ~count:(per_home * tenant_reads) ~offset rng)
      tenants
  in
  let queues =
    Array.init tenant_clients (fun c ->
        let h = c mod tenant_count and k = c / tenant_count in
        let read j = (tenants.(h).tvocab.(draws.(h).((j * per_home) + k)), false) in
        let reads = Array.init tenant_reads read in
        let at = Rng.int rng (tenant_reads + 1) in
        let sweep = [| (antagonist, true) |] in
        (h, Array.concat [ Array.sub reads 0 at; sweep; Array.sub reads at (tenant_reads - at) ]))
  in
  let flat = Array.map (fun (h, q) -> Array.map (fun x -> (h, x)) q) queues in
  (queues, Array.concat (Array.to_list flat))

let shard_layers (r : Shard.result) ~plans ~buffers ~makespan =
  let js = List.map snd r.Shard.jobs in
  let p99s =
    List.filter_map
      (fun (s : Shard.tenant_stat) -> if s.Shard.jobs > 0 then Some s.Shard.p99 else None)
      r.Shard.tenant_stats
    |> Array.of_list
  in
  let shard_io = List.map (fun (s : Shard.shard_stat) -> s.Shard.io_time) r.Shard.shard_stats in
  let mean_io = List.fold_left ( +. ) 0.0 shard_io /. float_of_int (List.length shard_io) in
  let protected_hits =
    List.fold_left
      (fun a (s : Shard.shard_stat) -> a + s.Shard.scan_resist_hits)
      0 r.Shard.shard_stats
  in
  plan_mix plans @ cache_layers ()
  @ io_layers (pool_totals ~q:(List.length js) ~sim_io:r.Shard.io_time buffers)
  @ job_layers ~turns:r.Shard.turns ~max_concurrent:r.Shard.max_concurrent js
  @ [
      ("shard.rebalance_moves", float_of_int r.Shard.rebalance_moves);
      ( "shard.tenant_tail_spread",
        ratio (Array.fold_left Float.max 0.0 p99s) (percentile p99s 50.0) );
      ("shard.read_imbalance", ratio makespan mean_io);
      ("shard.scan_resist_hits", float_of_int protected_hits);
    ]

let tenants =
  let setup ~seed () =
    let docs =
      List.init tenant_count (fun i ->
          let doc = Docs.generate ~fidelity:tenant_fidelity ~seed:((seed * tenant_count) + i) in
          (Printf.sprintf "tenant-%02d" i, doc))
    in
    let t =
      Span.run "import" (fun () -> Shard.create ~capacity:tenant_frames ~shards:shard_count docs)
    in
    fun () ->
      let rng = Rng.create seed in
      let config = { config_cache with Context.scan_resistant = true } in
      let tenants =
        Array.of_list
          (List.map
             (fun (tname, doc) ->
               let tstore = Shard.store t tname in
               let tvocab = Docs.vocabulary (Option.get (Store.partition tstore)) in
               { tname; tstore; tvocab; toracle = Docs.oracle (Docs.labels_of doc) doc })
             docs)
      in
      let u = Rng.float rng in
      let insts =
        Array.init tenant_instances (fun k ->
            let offset = (float_of_int k +. u) /. float_of_int tenant_instances in
            tenant_queues rng tenants ~offset)
      in
      let requests = tenant_clients * (tenant_reads + 1) in
      (* One pool per shard, reached through any of its tenants. *)
      let buffers =
        List.init shard_count (fun s ->
            Array.to_list tenants |> List.find_opt (fun x -> Shard.shard_of t x.tname = s))
        |> List.filter_map (Option.map (fun x -> Store.buffer x.tstore))
      in
      let spec c j (h, (text, sweep)) =
        let tenant = tenants.(h) in
        let req = (c * (tenant_reads + 1)) + j in
        let path = Docs.parse ~req text in
        let path, plan =
          if sweep then (path, Plan.xscan ())
          else Span.run ~req "plan" (fun () -> Compile.plan_for tenant.tstore path)
        in
        let label = string_of_int req in
        let spec = { Workload.label; path; plan; timeout = None; ops = [] } in
        { Shard.tenant = tenant.tname; spec }
      in
      let rep ~inst ~layers =
        let queues, _ = insts.(inst) in
        Result_cache.clear ();
        Result_cache.reset_stats ();
        let t0 = now () in
        let clients =
          Array.mapi
            (fun c (h, q) -> Array.to_list (Array.mapi (fun j x -> spec c j (h, x)) q))
            queues
        in
        let r =
          Span.run "shard_clients" (fun () -> Shard.run_clients ~config ~cold:true t clients)
        in
        let host_s = now () -. t0 in
        let jobs = Array.of_list (List.map snd r.Shard.jobs) in
        let makespan =
          List.fold_left
            (fun a (s : Shard.shard_stat) -> Float.max a s.Shard.io_time)
            0.0 r.Shard.shard_stats
        in
        let layers =
          if not layers then []
          else begin
            let planned (_, q) tjs =
              List.filteri (fun j _ -> not (snd q.(j))) tjs
              |> List.map (fun (tj : Shard.tjob) -> tj.Shard.spec.Workload.plan)
            in
            let plans = List.concat (Array.to_list (Array.map2 planned queues clients)) in
            shard_layers r ~plans ~buffers ~makespan
          end
        in
        {
          (empty_rep inst) with
          host_s;
          makespan;
          lat = engine_latencies jobs;
          answers = Array.map job_answer jobs;
          labels = Array.map (fun (j : Workload.job) -> j.Workload.job_label) jobs;
          layers;
        }
      in
      let check r =
        let _, flat = insts.(r.inst) in
        mismatches r (fun l ->
            let h, (text, _) = flat.(int_of_string l) in
            tenants.(h).toracle text)
      in
      let probe () =
        Result_cache.clear ();
        let _, flat = insts.(0) in
        Array.to_list flat
        |> List.map (fun (h, (text, _)) -> (tenants.(h).tstore, text))
        |> exec_probe ~k:24
      in
      let total f = Array.fold_left (fun a x -> a + f x) 0 tenants in
      {
        sizes =
          [
            ("pages", float_of_int (total (fun x -> Store.page_count x.tstore)));
            ("nodes", float_of_int (total (fun x -> Store.node_count x.tstore)));
            ("pool_frames", float_of_int (tenant_frames * shard_count));
            ("cache_capacity", float_of_int (Result_cache.capacity ()));
            ("vocabulary", float_of_int (total (fun x -> Array.length x.tvocab)));
            ("clients", float_of_int tenant_clients);
          ];
        requests;
        instances = tenant_instances;
        rep;
        check;
        probe;
        digest =
          digest_texts
            (List.concat_map
               (fun (_, flat) ->
                 Array.to_list (Array.map (fun (h, (text, _)) -> string_of_int h ^ text) flat))
               (Array.to_list insts));
      }
  in
  { name = "tenants"; setup }

let workloads = [ paper_cold; zipf_family ~writes:false; zipf_family ~writes:true; tenants ]

(* --- the run ---------------------------------------------------------------- *)

(* A fixed loop that calls no repository code: integer arithmetic plus a
   dependent random walk over a 32 MiB table, so both core speed and
   memory latency show. The table lives off the OCaml heap, so
   peak_heap_mb does not see it. *)
let drift_table =
  lazy
    (let n = 1 lsl 22 in
     let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       t.{i} <- ((i * 2654435761) + 12345) land (n - 1)
     done;
     t)

let drift_loop () =
  let table = Lazy.force drift_table in
  let t0 = now () in
  let x = ref 1 and j = ref 0 in
  for i = 1 to 10_000_000 do
    x := (!x * 1103515245) + i
  done;
  for _ = 1 to 1_000_000 do
    j := table.{!j}
  done;
  ignore (Sys.opaque_identity (!x, !j));
  ms (now () -. t0)

let fresh_heap () = Gc.full_major ()

(* Set-up times of the run. Set-ups are repeated between repetitions
   (about a tenth of the measured time), so they sample the same machine
   phases as the repetitions do. *)
let setup_times = ref []

let timed_setup (w : workload) ~seed =
  fresh_heap ();
  let t0 = now () in
  let k = w.setup ~seed () in
  setup_times := (now () -. t0) :: !setup_times;
  k

(* Repetitions, cycling through the first [instances] request sequences,
   until [seconds] are spent and each ran at least once; [resetup] runs
   another timed set-up while set-ups have taken under a tenth of the
   time. *)
let measure ?(resetup = fun () -> ()) ~seconds ~layers ~instances (p : prepared) =
  let start = now () in
  let reps = ref [] and i = ref 0 in
  while !i < instances || now () < start +. seconds do
    fresh_heap ();
    let inst = !i mod instances in
    let r = try p.rep ~inst ~layers:(layers && !i = 0) with _ -> empty_rep inst in
    reps := r :: !reps;
    incr i;
    if List.fold_left ( +. ) 0.0 !setup_times < 0.1 *. (now () -. start) then resetup ()
  done;
  List.rev !reps

(* The first repetition of each sequence that ran. *)
let firsts reps =
  List.fold_left
    (fun acc r -> if List.exists (fun q -> q.inst = r.inst) acc then acc else r :: acc)
    [] reps
  |> List.rev

(* Each sequence's first repetition is checked against the reference;
   later repetitions of it must return the same answers and the same
   simulated numbers. Returns (failed requests, deterministic). *)
let verify (p : prepared) reps =
  let first = firsts reps in
  List.fold_left
    (fun (failed, det) r ->
      let f = List.find (fun q -> q.inst = r.inst) first in
      if r == f then
        let checked = try p.check r with _ -> p.requests in
        (failed + min p.requests (checked + lost p r), det)
      else begin
        let differs = ref 0 in
        Array.iteri
          (fun i a ->
            if a <> None && (i >= Array.length f.answers || a <> f.answers.(i)) then incr differs)
          r.answers;
        (failed + lost p r + !differs, det && r.lat = f.lat && r.makespan = f.makespan)
      end)
    (0, true) reps

let host_qps (p : prepared) reps =
  median (List.map (fun r -> ratio (float_of_int p.requests) r.host_s) reps)

(* Simulated numbers pool one repetition of each sequence. *)
let e2e_of (p : prepared) ~setup_s reps =
  let first = firsts reps in
  let lat = Array.concat (List.map (fun r -> r.lat) first) in
  let makespan = List.fold_left (fun a r -> a +. r.makespan) 0.0 first in
  let n = Array.length lat in
  let tp = tail_pct n in
  ( [
      ("setup_s", setup_s);
      ("qps", host_qps p reps);
      ("sim_qps", ratio (float_of_int (p.requests * List.length first)) makespan);
      ("sim_p50_ms", ms (percentile lat 50.0));
      ("sim_tail_ms", ms (percentile lat tp));
    ],
    [ ("sim_tail_pct", tp); ("sim_tail_samples", float_of_int n) ] )

(* Per-layer numbers of a traced phase: span self times, the first
   repetition's counters and the workload's probe. *)
let traced_layers (p : prepared) treps ~qps =
  let selfs = Span.self_times () in
  let per name scale =
    let n, t = Span.self_of selfs name in
    ratio (t *. scale) (float_of_int n)
  in
  let total name = snd (Span.self_of selfs name) in
  let nreps = float_of_int (List.length treps) in
  [
    ("gen.host_s", total "gen");
    ("import.host_s", total "import");
    ("attach.host_s", total "attach");
    ("import.pages", List.assoc "pages" p.sizes);
    ("import.nodes", List.assoc "nodes" p.sizes);
    ("xpath.parse_us", per "parse" 1e6);
    ("compile.plan_us", per "plan" 1e6);
    ("exec.host_ms_per_q", per "exec" 1e3);
    ("workload.host_s", total "run_clients" /. nreps);
    ("shard.host_s", total "shard_clients" /. nreps);
    ("check.host_s", total "check");
    ("trace.overhead_frac", ratio (qps -. host_qps p treps) qps);
  ]
  @ (List.hd treps).layers

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let jnum x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let jnums kvs = json_obj (List.map (fun (k, v) -> (k, jnum v)) kvs)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let out = ref "" and trace_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 add a traced phase and report per-layer numbers");
      ("--out", Arg.Set_string out, "FILE result JSON (default: standard output)");
      ( "--trace-file",
        Arg.Set_string trace_file,
        "FILE Chrome trace-event JSON of the traced phase" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE] [--trace-file FILE]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let traced = !trace = 1 in
  let phase = if traced then !seconds /. 2.0 else !seconds in
  let drift_before = drift_loop () in
  let resetup () = ignore (timed_setup w ~seed:!seed : unit -> prepared) in
  resetup ();
  resetup ();
  let p = timed_setup w ~seed:!seed () in
  (* A traced run compares against an untraced phase of the same first
     sequence; its end-to-end numbers are not reported. *)
  let instances = if traced then 1 else p.instances in
  let reps = measure ~resetup ~seconds:phase ~layers:false ~instances p in
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let peak_heap_mb = float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6 in
  let drift_after = drift_loop () in
  let failed, deterministic = verify p reps in
  let e2e, tail_info = e2e_of p ~setup_s:(median !setup_times) reps in
  let e2e = e2e @ [ ("peak_heap_mb", peak_heap_mb) ] in
  let attempted = ref (p.requests * List.length reps) and failed = ref failed in
  let deterministic = ref deterministic in
  let layers =
    if not traced then []
    else begin
      fresh_heap ();
      Span.on := true;
      let p = w.setup ~seed:!seed () () in
      let treps = measure ~seconds:phase ~layers:true ~instances:1 p in
      let tfailed, tdet = Span.run "check" (fun () -> verify p treps) in
      attempted := !attempted + (p.requests * List.length treps);
      failed := !failed + tfailed;
      deterministic := !deterministic && tdet;
      let probe = p.probe () in
      Span.on := false;
      if !trace_file <> "" then Span.write_chrome !trace_file;
      traced_layers p treps ~qps:(List.assoc "qps" e2e) @ probe
    end
  in
  let failed_frac = fratio !failed !attempted in
  let drift = [ ("host_drift.before_ms", drift_before); ("host_drift.after_ms", drift_after) ] in
  let layers = if traced then layers @ [ ("failed_frac", failed_frac) ] @ drift else [] in
  let info =
    p.sizes @ tail_info
    @ [
        ("setups", float_of_int (List.length !setup_times));
        ("requests_digest", float_of_int (p.digest land ((1 lsl 52) - 1)));
        ("reps", float_of_int (List.length reps));
        ("sequences", float_of_int (List.length (firsts reps)));
        ("failed_frac", failed_frac);
      ]
    @ drift
  in
  let doc =
    json_obj
      [
        ("workload", Printf.sprintf "%S" w.name);
        ("seed", string_of_int !seed);
        ("attempted", string_of_int !attempted);
        ("failed", string_of_int !failed);
        ("deterministic", string_of_bool !deterministic);
        ("end_to_end", jnums e2e);
        ("per_layer", jnums layers);
        ("info", jnums info);
      ]
  in
  if !out = "" then print_endline doc
  else begin
    let oc = open_out !out in
    output_string oc doc;
    output_char oc '\n';
    close_out oc
  end

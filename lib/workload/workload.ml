module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Io_scheduler = Xnav_storage.Io_scheduler
module Ordpath = Xnav_xml.Ordpath
module Path = Xnav_xpath.Path
module Context = Xnav_core.Context
module Plan = Xnav_core.Plan
module Exec = Xnav_core.Exec
module Result_cache = Xnav_core.Result_cache
module Vec = Xnav_core.Vec
module Update = Xnav_store.Update
module Node_record = Xnav_store.Node_record

type update_op =
  | Insert_child of { parent : Node_id.t; tag : Xnav_xml.Tag.t }
  | Delete_subtree of Node_id.t

type spec = {
  label : string;
  path : Xnav_xpath.Path.t;
  plan : Plan.t;
  timeout : float option;
  ops : update_op list;
}

type status = Completed | Timed_out | Recovered

let status_to_string = function
  | Completed -> "completed"
  | Timed_out -> "timed-out"
  | Recovered -> "recovered"

type job = {
  job_label : string;
  client : int;
  site : int;
  status : status;
  nodes : Store.info list;
  count : int;
  submitted : float;
  started : float;
  finished : float;
  latency : float;
  pin_wait : float;
  served_ticks : int;
  starved_ticks : int;
  yields : int;
  boosts : int;
  shared : bool;
  cache_hit : bool;
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  finish_commit : int;
  fell_back : bool;
}

type result = {
  jobs : job list;
  io_time : float;
  cpu_time : float;
  total_time : float;
  page_reads : int;
  seek_distance : int;
  batched_reads : int;
  batch_pages : int;
  coalesce_runs : int;
  max_concurrent : int;
  turns : int;
  shared_jobs : int;
  cache_hits : int;
  cache_misses : int;
  writer_commits : int;
  latch_waits : int;
  snapshot_retries : int;
  cluster_stales : int;
  commit_log : update_op list;
  violations : string list;
  pool_turns : int array;
  rebalance_moves : int;
}

(* A pool is one storage stack: a buffer manager with its disk (and
   clock) and its I/O scheduler, plus the engine's state for it: the
   jobs queued for admission, the admitted lanes in rotation order, the
   rotation cursor and the turns granted. A site is one store on a pool;
   [tix] indexes the engine's site array. *)
type pool = {
  ix : int;
  buffer : Buffer_manager.t;
  disk : Disk.t;
  sched : Io_scheduler.t;
  disk_before : Disk.stats;
  io_before : float;
  waiting : (int * site * spec * float) Queue.t;
  mutable active : lane list;
  mutable rr : int;
  mutable turns : int;
}

and site = { tix : int; store : Store.t; pool : pool }

and lane = {
  site : site;
  spec : spec;
  client : int;
  submitted_at : float;
  started_at : float;
  mutable ctx : Context.t;  (* counter holder; the stream's context when one exists *)
  mutable stream : Exec.stream option;
      (* [None] for jobs that never execute a stream: answered from the
         result cache at admission, riding another client's identical
         in-flight scan as a follower, or a writer job. *)
  mutable followers : lane list;
  seen : unit Node_id.Tbl.t;
  nodes : Store.info Vec.t;  (* arrival order *)
  mutable sorted : Store.info list option;
      (* the answer already in document order — set when it came from
         the result cache or a shared scan, so serving a repeat is a
         pointer copy, not a per-job copy-and-sort *)
  mutable yields : int;
  mutable boosts : int;
  mutable status : status;
  mutable done_at : float;
  (* Snapshot machinery (readers): [touched] is the live touch log of
     the current stream — every cluster it has observed; [snapshot] the
     mutation stamp the stream started under. A writer commit into an
     observed cluster forces a restart ([retries]); served/starved
     credits of abandoned streams are carried across restarts. *)
  touched : (int, unit) Hashtbl.t;
  mutable snapshot : int;
  mutable retries : int;
  mutable carry_served : int;
  mutable carry_starved : int;
  (* Writer machinery: the two-phase op queue — [armed] holds the op
     latched last turn (plus the pids latched for it), committed next
     turn. *)
  mutable pending_ops : update_op list;
  mutable armed : (update_op * int list) option;
  (* Commit-schedule position: how many writer commits (engine-wide)
     preceded this job's completion — the serial-replay point at which
     this job's answer must be reproducible. *)
  mutable finish_commit : int;
}

(* Worst-case steady pin demand per admitted query: one held frame
   (XSchedule's current cluster; Simple/XScan navigation pins are
   transient, released before the stream yields) plus one frame of
   headroom for the page being entered. Release-before-acquire inside
   each operator means a query never needs both at once for itself, but
   a crossing momentarily touches the next cluster while the batch
   installer may hold completion-queue pins — two frames per query is
   the bound under which no schedule can wedge the pool. Followers and
   cache hits pin nothing and are exempt from admission. *)
let demand_frames = 2

let percentile xs p =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    List.nth sorted (min (n - 1) (max 0 (rank - 1)))

let doc_order (a : Store.info) (b : Store.info) = Ordpath.compare a.ordpath b.ordpath

(* A partition-seeded stream takes its seeds from the path partition,
   not from page reads, so its touch log cannot cover the writes that
   would change them: it depends on every commit after its snapshot. *)
let partition_seeded lane =
  match lane.stream with Some s -> Exec.stream_indexed s | None -> false

let run_sites ?config ?(quantum = 0.004) ?(ordered = true) ~cold ~pools:buffers stores clients =
  if Array.length clients = 0 then invalid_arg "Workload.run_sites: no clients";
  if cold then
    Array.iter
      (fun buffer ->
        Buffer_manager.reset buffer;
        Disk.reset_clock (Buffer_manager.disk buffer))
      buffers;
  let pools =
    Array.mapi
      (fun ix buffer ->
        let disk = Buffer_manager.disk buffer in
        {
          ix;
          buffer;
          disk;
          sched = Buffer_manager.scheduler buffer;
          disk_before = Disk.stats disk;
          io_before = Disk.elapsed disk;
          waiting = Queue.create ();
          active = [];
          rr = 0;
          turns = 0;
        })
      buffers
  in
  let sites =
    Array.mapi
      (fun tix store ->
        match Array.find_opt (fun p -> p.buffer == Store.buffer store) pools with
        | Some pool -> { tix; store; pool }
        | None -> invalid_arg "Workload.run_sites: a site's store is on none of the pools")
      stores
  in
  Array.iter
    (List.iter (fun (s, _) ->
         if s < 0 || s >= Array.length sites then invalid_arg "Workload.run_sites: unknown site"))
    clients;
  let cpu_before = Sys.time () in
  let now pool = Disk.elapsed pool.disk in
  let cfg = match config with Some c -> c | None -> Context.default_config in
  (* The front door: both levels — result-cache consultation at admission
     and same-site shared-scan dedup — ride the one knob, so knob-off
     reproduces the historical engine exactly. *)
  let front_door = cfg.Context.result_cache in

  (* Closed-loop clients: each entry is the client's remaining jobs; a
     client's next job is submitted the moment the previous finishes and
     queues at its site's pool. *)
  let remaining = Array.map (fun l -> ref l) clients in
  let submit client =
    match !(remaining.(client)) with
    | [] -> ()
    | (s, spec) :: rest ->
      remaining.(client) := rest;
      let site = sites.(s) in
      Queue.add (client, site, spec, now site.pool) site.pool.waiting
  in
  Array.iteri (fun client _ -> submit client) clients;

  let finished = ref [] in
  let max_concurrent = ref 0 in
  let turns = ref 0 in
  let total_active () = Array.fold_left (fun a pool -> a + List.length pool.active) 0 pools in
  (* Cross-site fairness state: the turn at which each site was last
     served (or admitted a lane — arrival resets its aging). *)
  let last_served = Array.make (Array.length sites) 0 in
  let rebalance_moves = ref 0 in

  (* Writer state, engine-wide. [latches] maps a cluster pid to the
     client holding it exclusively; readers never consult it (they are
     latch-free — snapshots protect them), writers acquire before
     mutating and release at commit. [commit_count] stamps the serial
     order of commits; [commit_log] records committed ops (newest first)
     so a differential harness can replay the schedule serially. *)
  let latches : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let commit_count = ref 0 in
  let commit_log = ref [] in

  let make_lane ~site ~client ~spec ~submitted_at ~stream =
    {
      site;
      spec;
      client;
      submitted_at;
      started_at = now site.pool;
      ctx =
        (match stream with
        | Some s -> Exec.stream_ctx s
        | None -> Context.create ~config:cfg site.store);
      stream;
      followers = [];
      seen = Node_id.Tbl.create 64;
      nodes = Vec.create ();
      sorted = None;
      yields = 0;
      boosts = 0;
      status = Completed;
      done_at = 0.0;
      touched = Hashtbl.create 16;
      snapshot = Store.mutation_stamp site.store;
      retries = 0;
      carry_served = 0;
      carry_starved = 0;
      pending_ops = spec.ops;
      armed = None;
      finish_commit = 0;
    }
  in

  (* Install a completed stream job's answer for the next identical
     statement. Streams always run from the root context, so every
     completed job is cacheable. Entries key on the site store's uid and
     content digest, so co-located sites never serve each other. *)
  let cache_fill lane =
    if front_door then begin
      let nodes = Vec.sorted_to_list doc_order lane.nodes in
      lane.sorted <- Some nodes;
      let c = lane.ctx.Context.counters in
      c.Context.cache_misses <- 1;
      (* Cluster footprint for cluster-granular invalidation: every pid
         the final stream observed. A partition-seeded run's footprint
         understates its dependencies — install those entries
         footprint-free (staled by any mutation). *)
      let clusters =
        if partition_seeded lane then None
        else begin
          let pids = Hashtbl.fold (fun pid () acc -> pid :: acc) lane.touched [] in
          Some (Array.of_list (List.sort_uniq compare pids))
        end
      in
      c.Context.cache_evictions <-
        Result_cache.add ?clusters lane.site.store (Path.to_string lane.spec.path)
          ~count:(List.length nodes) nodes
    end
  in

  let finish lane status =
    let pool = lane.site.pool in
    pool.active <- List.filter (fun l -> l != lane) pool.active;
    lane.status <- status;
    lane.done_at <- now pool;
    lane.finish_commit <- !commit_count;
    lane.ctx.Context.counters.Context.snapshot_retries <- lane.retries;
    finished := lane :: !finished;
    (match (status, lane.stream) with Completed, Some _ -> cache_fill lane | _ -> ());
    (* A completed shared scan answers every follower at the same
       instant; a recovered one sends them to the same serial recompute
       (where the leader's recomputed answer is already cached). *)
    List.iter
      (fun f ->
        (if status = Completed then
           match lane.sorted with
           | Some _ -> f.sorted <- lane.sorted
           | None ->
             Vec.clear f.nodes;
             Vec.iter (Vec.push f.nodes) lane.nodes);
        f.status <- status;
        f.done_at <- now pool;
        f.finish_commit <- !commit_count;
        finished := f :: !finished;
        submit f.client)
      lane.followers;
    lane.followers <- [];
    submit lane.client
  in

  (* Shared-scan dedup (level 2): an identical statement already in
     flight on the same site means this job's cluster demand is a subset
     of work the pool is about to do anyway — attach it as a follower
     instead of issuing a second scan. A follower belongs to its
     leader's site, so per-site fairness accounting stays exact.
     Deadline-carrying jobs keep their own lane (a follower's fate is
     its leader's). *)
  let find_leader site spec =
    if (not front_door) || spec.timeout <> None then None
    else
      let key = Path.to_string spec.path in
      List.find_opt
        (fun l ->
          l.site == site && l.stream <> None && l.spec.timeout = None
          && Path.to_string l.spec.path = key)
        site.pool.active
  in

  let admit pool =
    let capacity = Buffer_manager.capacity pool.buffer in
    (* Alone is always admissible — the single-query engine makes
       progress on any pool down to one frame (and recovers through the
       fallback restart if it cannot). Company needs headroom. Writers
       take a plain lane slot: their transient fix/unfix pattern fits
       the same two-frame demand bound. *)
    let admissible () =
      let n = List.length pool.active in
      n = 0 || demand_frames * (n + 1) <= capacity
    in
    let join lane =
      pool.active <- pool.active @ [ lane ];
      last_served.(lane.site.tix) <- max last_served.(lane.site.tix) !turns;
      let n = total_active () in
      if n > !max_concurrent then max_concurrent := n
    in
    let stop = ref false in
    while (not !stop) && not (Queue.is_empty pool.waiting) do
      let client, site, spec, submitted_at = Queue.peek pool.waiting in
      if spec.ops <> [] then begin
        (* Writer job: no front door (a writer produces no statement
           answer to cache or share). *)
        if admissible () then begin
          ignore (Queue.pop pool.waiting);
          join (make_lane ~site ~client ~spec ~submitted_at ~stream:None)
        end
        else stop := true
      end
      else
        match find_leader site spec with
        | Some leader ->
          ignore (Queue.pop pool.waiting);
          let lane = make_lane ~site ~client ~spec ~submitted_at ~stream:None in
          lane.ctx.Context.counters.Context.shared_demand <- 1;
          leader.followers <- lane :: leader.followers
        | None -> (
          match
            if front_door then Result_cache.find site.store (Path.to_string spec.path) else None
          with
          | Some entry ->
            (* Level 1 hit: the job completes at admission, no lane slot,
               no planning, no I/O. *)
            ignore (Queue.pop pool.waiting);
            let lane = make_lane ~site ~client ~spec ~submitted_at ~stream:None in
            lane.ctx.Context.counters.Context.cache_hits <- 1;
            lane.sorted <- Some (Result_cache.nodes entry);
            lane.done_at <- now pool;
            lane.finish_commit <- !commit_count;
            finished := lane :: !finished;
            submit lane.client
          | None ->
            if admissible () then begin
              ignore (Queue.pop pool.waiting);
              let stream = Exec.prepare ?config site.store spec.path spec.plan in
              join (make_lane ~site ~client ~spec ~submitted_at ~stream:(Some stream))
            end
            else stop := true)
    done
  in

  (* A query is boosted when some cluster it has queued demand for is
     already cheap: resident in its pool, inside another query's open
     scan window, or part of a coalescible pending run. Serving it now
     converts another query's work (or the scheduler's batching) into
     this query's progress — the cross-query coalescing of the paper's
     outlook. *)
  let boosted pool lane =
    match lane.stream with
    | None -> false
    | Some stream -> (
      match Exec.stream_demand stream with
      | [] -> false
      | demand ->
        let windows =
          List.filter_map
            (fun l ->
              if l == lane then None else Option.bind l.stream Exec.stream_scan_window)
            pool.active
        in
        let sched = pool.sched in
        List.exists
          (fun pid ->
            Buffer_manager.resident pool.buffer pid
            || (Io_scheduler.is_pending sched pid
               && (Io_scheduler.is_pending sched (pid - 1) || Io_scheduler.is_pending sched (pid + 1)))
            || List.exists (fun (lo, hi) -> pid >= lo && pid <= hi) windows)
          demand)
  in

  (* Serve one cost credit: run until the quantum's worth of simulated
     time is spent, a random I/O fires (yield immediately — cheaper work
     can run while the head repositions), the stream ends, or the pool is
     exhausted (tear down, recompute serially later). The step cap keeps
     rotation alive for queries that are momentarily free (every page
     resident advances no simulated time at all). *)
  let step_cap = 256 in

  (* Snapshot rule: a stream is valid while no writer has committed into
     a cluster the stream has already observed ([touched]), or — for a
     partition-seeded stream — while no writer has committed at all.
     Commits are atomic within a writer's turn, so checking once at the
     top of each reader turn suffices — the stream cannot observe a
     half-applied op. On conflict the stream restarts from scratch under
     a fresh stamp; fairness credits of the abandoned attempt are
     carried. *)
  let restart lane stream =
    Exec.stream_abandon stream;
    let c = lane.ctx.Context.counters in
    lane.carry_served <- lane.carry_served + c.Context.served_ticks;
    lane.carry_starved <- lane.carry_starved + c.Context.starved_ticks;
    Node_id.Tbl.reset lane.seen;
    Vec.clear lane.nodes;
    Hashtbl.reset lane.touched;
    lane.retries <- lane.retries + 1;
    let store = lane.site.store in
    let s = Exec.prepare ?config store lane.spec.path lane.spec.plan in
    lane.stream <- Some s;
    lane.ctx <- Exec.stream_ctx s;
    lane.snapshot <- Store.mutation_stamp store
  in

  let serve_reader lane stream =
    let store = lane.site.store and pool = lane.site.pool in
    let saved = Store.swap_touch_log store (Some lane.touched) in
    let conflicted =
      Store.mutation_stamp store > lane.snapshot
      && (partition_seeded lane
         || Hashtbl.fold
              (fun pid () acc -> acc || Store.page_stamp store pid > lane.snapshot)
              lane.touched false)
    in
    let stream =
      if not conflicted then Some stream
      else
        match restart lane stream with
        | () -> lane.stream
        | exception Buffer_manager.Buffer_full ->
          finish lane Recovered;
          None
    in
    (match stream with
    | None -> ()
    | Some stream ->
      let start = now pool in
      let steps = ref 0 in
      let running = ref true in
      while !running do
        let rnd0 = (Disk.stats pool.disk).Disk.random_reads in
        match Exec.stream_next stream with
        | None ->
          finish lane Completed;
          running := false
        | Some info ->
          incr steps;
          if not (Node_id.Tbl.mem lane.seen info.Store.id) then begin
            Node_id.Tbl.replace lane.seen info.Store.id ();
            Vec.push lane.nodes info
          end;
          if (Disk.stats pool.disk).Disk.random_reads > rnd0 then begin
            lane.yields <- lane.yields + 1;
            running := false
          end
          else if now pool -. start >= quantum || !steps >= step_cap then running := false
        | exception Buffer_manager.Buffer_full ->
          (* The pool is exhausted under contention (or this lane wedged
             post-fallback). Unwind its async state and recompute the
             answer with the Simple plan once everything has drained. *)
          Exec.stream_abandon stream;
          finish lane Recovered;
          running := false
      done);
    ignore (Store.swap_touch_log store saved)
  in

  (* Writers are two-phase, one phase per turn. Acquire turn: latch the
     op's target cluster (exclusive against other writers; blocked →
     count a latch wait, retry next turn) and validate the target still
     exists — a concurrent delete may have removed it, in which case the
     op is skipped. Commit turn: apply the op atomically (the whole
     surgery inside one turn — readers between turns never see a partial
     op), log it, and stale exactly the result-cache entries whose
     footprint the write set intersects. Clusters an op escalates into
     mid-commit (overflow pages, purged subtree clusters) are not
     latched: the latch protocol orders writer-writer conflicts on the
     declared target, while the commit's validation probe plus the
     op-skip catch keep races through escalation safe — a skipped op is
     excluded from the commit log, so serial replay agrees. *)
  let latch_targets = function
    | Insert_child { parent; _ } -> [ parent.Node_id.pid ]
    | Delete_subtree victim -> [ victim.Node_id.pid ]
  in
  let op_valid store op =
    match op with
    | Insert_child { parent; _ } -> (
      match Store.read store parent with
      | Node_record.Core _ -> true
      | _ | (exception Failure _) | (exception Invalid_argument _) -> false)
    | Delete_subtree victim -> (
      match Store.read store victim with
      | Node_record.Core c -> c.Node_record.parent <> None
      | _ | (exception Failure _) | (exception Invalid_argument _) -> false)
  in
  let serve_writer lane =
    let store = lane.site.store in
    let c = lane.ctx.Context.counters in
    match lane.armed with
    | Some (op, held) ->
      let write_set = Hashtbl.create 8 in
      let saved = Store.swap_write_log store (Some write_set) in
      let committed =
        try
          (match op with
          | Insert_child { parent; tag } -> ignore (Update.insert_element store ~parent tag)
          | Delete_subtree victim -> ignore (Update.delete_subtree store victim));
          true
        with _ -> false
      in
      ignore (Store.swap_write_log store saved);
      List.iter (fun pid -> Hashtbl.remove latches pid) held;
      lane.armed <- None;
      if committed then begin
        c.Context.writer_commits <- c.Context.writer_commits + 1;
        incr commit_count;
        commit_log := op :: !commit_log;
        if front_door then begin
          let ws = Hashtbl.fold (fun pid () acc -> pid :: acc) write_set [] in
          let staled = Result_cache.stale_clusters store (Array.of_list ws) in
          c.Context.cluster_stales <- c.Context.cluster_stales + staled
        end
      end;
      if lane.pending_ops = [] then finish lane Completed
    | None -> (
      match lane.pending_ops with
      | [] -> finish lane Completed
      | op :: rest -> (
        let targets = latch_targets op in
        let blocked =
          List.exists
            (fun pid ->
              match Hashtbl.find_opt latches pid with
              | Some owner -> owner <> lane.client
              | None -> false)
            targets
        in
        if blocked then c.Context.latch_waits <- c.Context.latch_waits + 1
        else begin
          List.iter (fun pid -> Hashtbl.replace latches pid lane.client) targets;
          match op_valid store op with
          | true ->
            lane.armed <- Some (op, targets);
            lane.pending_ops <- rest
          | false ->
            List.iter (fun pid -> Hashtbl.remove latches pid) targets;
            lane.pending_ops <- rest;
            if rest = [] then finish lane Completed
          | exception Buffer_manager.Buffer_full ->
            (* Pool too tight even for the validation probe: release and
               retry the same op next turn. *)
            List.iter (fun pid -> Hashtbl.remove latches pid) targets;
            lane.yields <- lane.yields + 1
        end))
  in

  let serve lane =
    if lane.spec.ops <> [] then serve_writer lane
    else match lane.stream with None -> () | Some stream -> serve_reader lane stream
  in

  let credit l =
    let c = l.ctx.Context.counters in
    c.Context.served_ticks <- c.Context.served_ticks + 1
  in
  let starve l =
    let c = l.ctx.Context.counters in
    c.Context.starved_ticks <- c.Context.starved_ticks + 1
  in
  let busy pool = pool.active <> [] || not (Queue.is_empty pool.waiting) in
  let grr = ref 0 in
  while Array.exists busy pools do
    Array.iter admit pools;
    (* Deadlines, each on its pool's simulated clock, before the turn is
       given out: a timed-out query unwinds through abort_async and its
       client moves on to its next job. *)
    Array.iter
      (fun pool ->
        let t = now pool in
        List.iter
          (fun lane ->
            match (lane.spec.timeout, lane.stream) with
            | Some dt, Some stream when t -. lane.started_at >= dt ->
              Exec.stream_abandon stream;
              finish lane Timed_out
            | _ -> ())
          pool.active)
      pools;
    match List.filter (fun pool -> pool.active <> []) (Array.to_list pools) with
    | [] -> ()
    | runnable ->
      incr turns;
      (* The balancer: round-robin over the pools with runnable lanes —
         unless a site's pressure (turns unserved) exceeds the gate, in
         which case that site is served directly wherever it lives. The
         window scales with the load: under n active lanes a fair
         rotation serves each about every n turns, so 2n + 4 flags a
         genuinely starved site, not a slow rotation. With one site the
         gate never fires: its pressure is 1 at every pick. *)
      let default_pool = List.nth runnable (!grr mod List.length runnable) in
      incr grr;
      let threshold = (2 * total_active ()) + 4 in
      let worst = ref None in
      Array.iter
        (fun pool ->
          List.iter
            (fun l ->
              let p = !turns - last_served.(l.site.tix) in
              match !worst with
              | Some (wp, ws) when wp > p || (wp = p && ws.tix <= l.site.tix) -> ()
              | _ -> worst := Some (p, l.site))
            pool.active)
        pools;
      let focus = match !worst with Some (p, site) when p > threshold -> Some site | _ -> None in
      let pool = match focus with Some site -> site.pool | None -> default_pool in
      pool.turns <- pool.turns + 1;
      (* Within the pool: round-robin rotation with the cheap-demand
         boost override. *)
      let lanes = pool.active in
      let k = pool.rr mod List.length lanes in
      pool.rr <- pool.rr + 1;
      let rotated = List.filteri (fun i _ -> i >= k) lanes @ List.filteri (fun i _ -> i < k) lanes in
      let head = List.hd rotated in
      let default_pick = match List.filter (boosted pool) rotated with [] -> head | b :: _ -> b in
      let pick =
        match focus with
        | Some site ->
          let l = List.find (fun l -> l.site == site) rotated in
          if l != default_pick then incr rebalance_moves;
          l
        | None -> default_pick
      in
      if pick != head && pick == default_pick then pick.boosts <- pick.boosts + 1;
      credit pick;
      (* Fairness credits are charged to every sharer: a follower is
         being served whenever its leader's scan advances. *)
      List.iter credit pick.followers;
      last_served.(pick.site.tix) <- !turns;
      (* Starvation is engine-wide: every other runnable lane, in any
         pool, waited this turn — that makes served/starved ratios
         comparable across sites, which is what the gate protects. *)
      Array.iter (fun pool -> List.iter (fun l -> if l != pick then starve l) pool.active) pools;
      serve pick
  done;

  (* The pools are quiescent now: recompute abandoned queries serially
     with the Simple plan (the paper's fallback answer path). The
     recompute's simulated time, on the job's pool clock, is charged to
     its latency. With the front door on, a recovered leader's recompute
     installs its answer and its recovered followers hit the cache
     immediately after. *)
  List.iter
    (fun lane ->
      if lane.status = Recovered then begin
        let pool = lane.site.pool in
        let io0 = now pool in
        let r = Exec.run ?config ~ordered:false lane.site.store lane.spec.path Plan.simple in
        Vec.clear lane.nodes;
        List.iter (Vec.push lane.nodes) r.Exec.nodes;
        lane.finish_commit <- !commit_count;
        lane.done_at <- lane.done_at +. (now pool -. io0)
      end)
    (List.rev !finished);

  Array.iter
    (fun pool ->
      let pinned = Buffer_manager.pinned_count pool.buffer in
      if pinned <> 0 then
        failwith (Printf.sprintf "Workload: pool %d left %d pages pinned" pool.ix pinned))
    pools;
  let violations =
    let v = ref [] in
    let fail fmt = Printf.ksprintf (fun msg -> v := msg :: !v) fmt in
    Array.iter
      (fun pool ->
        let pending = Io_scheduler.pending_count pool.sched in
        if pending <> 0 then
          fail "pool %d: %d requests still pending after the workload" pool.ix pending;
        let completed = Buffer_manager.completed_count pool.buffer in
        if completed <> 0 then
          fail "pool %d: %d batch-installed pages never delivered" pool.ix completed;
        match Buffer_manager.consistency_error pool.buffer with
        | None -> ()
        | Some msg -> fail "pool %d: %s" pool.ix msg)
      pools;
    if Hashtbl.length latches <> 0 then
      fail "writers: %d cluster latches still held after the workload" (Hashtbl.length latches);
    if cfg.Context.validate then
      List.iter
        (fun lane ->
          match lane.stream with
          | None -> ()
          | Some stream ->
            List.iter
              (fun msg -> fail "%s [site %d/%s]" msg lane.site.tix lane.spec.label)
              (Exec.stream_violations stream))
        !finished;
    List.rev !v
  in
  if violations <> [] && cfg.Context.validate then
    failwith (Printf.sprintf "Workload invariant violation: %s" (String.concat "; " violations));

  let cpu_time = Sys.time () -. cpu_before in
  let io_time = Array.fold_left (fun a pool -> a +. (now pool -. pool.io_before)) 0.0 pools in
  let disk_delta f =
    Array.fold_left (fun a pool -> a + f (Disk.stats pool.disk) - f pool.disk_before) 0 pools
  in
  let to_job lane =
    let nodes =
      if lane.status = Timed_out then []
      else
        match lane.sorted with
        | Some ns -> ns
        | None ->
          if ordered then Vec.sorted_to_list doc_order lane.nodes else Vec.to_list lane.nodes
    in
    let c = lane.ctx.Context.counters in
    {
      job_label = lane.spec.label;
      client = lane.client;
      site = lane.site.tix;
      status = lane.status;
      nodes;
      count = List.length nodes;
      submitted = lane.submitted_at;
      started = lane.started_at;
      finished = lane.done_at;
      latency = lane.done_at -. lane.submitted_at;
      pin_wait = lane.started_at -. lane.submitted_at;
      served_ticks = lane.carry_served + c.Context.served_ticks;
      starved_ticks = lane.carry_starved + c.Context.starved_ticks;
      yields = lane.yields;
      boosts = lane.boosts;
      shared = c.Context.shared_demand > 0;
      cache_hit = c.Context.cache_hits > 0;
      writer_commits = c.Context.writer_commits;
      latch_waits = c.Context.latch_waits;
      snapshot_retries = lane.retries;
      finish_commit = lane.finish_commit;
      fell_back = (match lane.stream with Some s -> Exec.stream_fell_back s | None -> false);
    }
  in
  let jobs = List.rev_map to_job !finished in
  let sum f = List.fold_left (fun a lane -> a + f lane.ctx.Context.counters) 0 !finished in
  {
    jobs;
    io_time;
    cpu_time;
    total_time = io_time +. cpu_time;
    page_reads = disk_delta (fun s -> s.Disk.reads);
    seek_distance = disk_delta (fun s -> s.Disk.seek_distance);
    batched_reads = disk_delta (fun s -> s.Disk.batched_reads);
    batch_pages = disk_delta (fun s -> s.Disk.batch_pages);
    coalesce_runs = disk_delta (fun s -> s.Disk.coalesce_runs);
    max_concurrent = !max_concurrent;
    turns = !turns;
    shared_jobs = List.length (List.filter (fun j -> j.shared) jobs);
    cache_hits = List.length (List.filter (fun j -> j.cache_hit) jobs);
    cache_misses = sum (fun c -> c.Context.cache_misses);
    writer_commits = !commit_count;
    latch_waits = sum (fun c -> c.Context.latch_waits);
    snapshot_retries = List.fold_left (fun a lane -> a + lane.retries) 0 !finished;
    cluster_stales = sum (fun c -> c.Context.cluster_stales);
    commit_log = List.rev !commit_log;
    violations;
    pool_turns = Array.map (fun pool -> pool.turns) pools;
    rebalance_moves = !rebalance_moves;
  }

let run_clients ?config ?quantum ?ordered ~cold store clients =
  run_sites ?config ?quantum ?ordered ~cold ~pools:[| Store.buffer store |] [| store |]
    (Array.map (List.map (fun spec -> (0, spec))) clients)

let run ?config ?quantum ?ordered ~cold store specs =
  if specs = [] then invalid_arg "Workload.run: no queries";
  run_clients ?config ?quantum ?ordered ~cold store
    (Array.of_list (List.map (fun s -> [ s ]) specs))

module Axis = Xnav_xml.Axis
module Buffer_manager = Xnav_storage.Buffer_manager
module Page = Xnav_storage.Page

type access_log = (int, unit) Hashtbl.t

type t = {
  uid : int;  (* process-unique attach stamp; cache keys across stores *)
  identity : int;  (* content digest (tag census + record count); see [identity] *)
  buffer : Buffer_manager.t;
  root : Node_id.t;
  first_page : int;
  mutable page_count : int;
  mutable node_count : int;
  height : int;
  tag_counts : (Xnav_xml.Tag.t * int) list;
  tag_table : (Xnav_xml.Tag.t, int) Hashtbl.t;
  doc_stats : Doc_stats.t option;
  partition : Path_partition.t option;
  mutable swizzle : bool;
  mutable mutations : int;
  stats_stamp : int;  (* [mutations] value the stats/partition describe *)
  mutable swizzle_hits : int;
  mutable swizzle_misses : int;
  (* Cluster-granular mutation tracking: [page_stamps] maps a pid to the
     global [mutations] value of its last mutation, [all_stamp] is the
     stamp of the last store-wide (pid-less) mutation. A cached decode of
     page [pid] taken at stamp [s] is valid iff [page_stamp t pid <= s]. *)
  page_stamps : (int, int) Hashtbl.t;
  mutable all_stamp : int;
  (* Optional observer tables: when installed, every record access /
     page mutation reports the cluster it touched. The execution layer
     uses them to attach cluster footprints to cached results and to
     scope a writer's invalidation to the clusters it wrote. *)
  mutable touch_log : (int, unit) Hashtbl.t option;
  mutable write_log : (int, unit) Hashtbl.t option;
  (* Per-class partition staleness (lazily sized to the partition):
     [class_pids.(c)] is the sorted unique cluster set of class [c]'s
     entries, [class_stale.(c)] flips when a mutation touches one of
     them (or an insert adds a node whose root tag sequence is the
     class). [novel_paths] collects inserted tag sequences that match no
     import-time class — the partition has no entry list for them, so
     any query whose prefix could match one must not be index-seeded. *)
  mutable class_pids : int array array option;
  mutable class_stale : bool array;
  mutable novel_paths : Xnav_xml.Tag.t array list;
}

let tag_table_of tag_counts =
  let table = Hashtbl.create (max 16 (2 * List.length tag_counts)) in
  List.iter (fun (tag, n) -> Hashtbl.replace table tag n) tag_counts;
  table

let next_uid = ref 0

let fresh_uid () =
  incr next_uid;
  !next_uid

let reset_uids () = next_uid := 0

(* Deterministic content digest over what attach knows without reading a
   page: the record count and the full tag census (which covers the root
   element's tag). Two attaches of the same document agree; documents
   differing in any tag population disagree (modulo hash collisions,
   which only cost a spurious cache miss — uids still disambiguate live
   stores). *)
let identity_of ~node_count ~tag_counts =
  let mix h x = (h * 1_000_003) lxor (x land max_int) in
  List.fold_left
    (fun h (tag, n) -> mix (mix h (Xnav_xml.Tag.hash tag)) n)
    (mix 0x9e3779b9 node_count) tag_counts

let attach buffer (import : Import.result) =
  {
    uid = fresh_uid ();
    identity = identity_of ~node_count:import.Import.node_count ~tag_counts:import.Import.tag_counts;
    buffer;
    root = import.root;
    first_page = import.first_page;
    page_count = import.page_count;
    node_count = import.node_count;
    height = import.height;
    tag_counts = import.tag_counts;
    tag_table = tag_table_of import.tag_counts;
    doc_stats = Some import.stats;
    partition = Some import.partition;
    swizzle = true;
    mutations = 0;
    stats_stamp = 0;
    swizzle_hits = 0;
    swizzle_misses = 0;
    page_stamps = Hashtbl.create 64;
    all_stamp = 0;
    touch_log = None;
    write_log = None;
    class_pids = None;
    class_stale = [||];
    novel_paths = [];
  }

let attach_meta ?doc_stats ?partition buffer ~root ~first_page ~page_count ~node_count ~height
    ~tag_counts =
  {
    uid = fresh_uid ();
    identity = identity_of ~node_count ~tag_counts;
    buffer;
    root;
    first_page;
    page_count;
    node_count;
    height;
    tag_counts;
    tag_table = tag_table_of tag_counts;
    doc_stats;
    partition;
    swizzle = true;
    mutations = 0;
    stats_stamp = 0;
    swizzle_hits = 0;
    swizzle_misses = 0;
    page_stamps = Hashtbl.create 64;
    all_stamp = 0;
    touch_log = None;
    write_log = None;
    class_pids = None;
    class_stale = [||];
    novel_paths = [];
  }

let buffer t = t.buffer
let root t = t.root
let node_count t = t.node_count
let first_page t = t.first_page
let page_count t = t.page_count
let height t = t.height
let tag_counts t = t.tag_counts
let doc_stats t = t.doc_stats
let partition t = t.partition
let stats_fresh t = t.mutations = t.stats_stamp
let uid t = t.uid
let identity t = t.identity
let mutation_stamp t = t.mutations

(* --- Cluster-granular mutation tracking --------------------------------- *)

let page_stamp t pid =
  let s = match Hashtbl.find_opt t.page_stamps pid with Some s -> s | None -> 0 in
  max s t.all_stamp

let touch t pid =
  match t.touch_log with Some tbl -> Hashtbl.replace tbl pid () | None -> ()

let swap_touch_log t log =
  let old = t.touch_log in
  t.touch_log <- log;
  old

let swap_write_log t log =
  let old = t.write_log in
  t.write_log <- log;
  old

(* Per-class cluster sets, built lazily on the first mutation: the
   partition is immutable after import, so the sets describe exactly the
   clusters whose entry records belong to each class. *)
let ensure_class_meta t =
  match (t.partition, t.class_pids) with
  | None, _ | _, Some _ -> ()
  | Some p, None ->
    let n = Path_partition.class_count p in
    let pids =
      Array.init n (fun c ->
          let entries = Path_partition.class_entries p c in
          (* Sorted by (pid, slot) already — collapse to unique pids. *)
          let acc = ref [] in
          Array.iter
            (fun (id : Node_id.t) ->
              match !acc with
              | pid :: _ when pid = id.Node_id.pid -> ()
              | _ -> acc := id.Node_id.pid :: !acc)
            entries;
          Array.of_list (List.rev !acc))
    in
    t.class_pids <- Some pids;
    if Array.length t.class_stale <> n then t.class_stale <- Array.make n false

let pid_member pids pid =
  let lo = ref 0 and hi = ref (Array.length pids - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = pids.(mid) in
    if v = pid then found := true else if v < pid then lo := mid + 1 else hi := mid - 1
  done;
  !found

let stale_classes_at t pid =
  match t.partition with
  | None -> ()
  | Some _ ->
    ensure_class_meta t;
    (match t.class_pids with
    | None -> ()
    | Some pids ->
      for c = 0 to Array.length pids - 1 do
        if (not t.class_stale.(c)) && pid_member pids.(c) pid then t.class_stale.(c) <- true
      done)

let class_fresh t c =
  ensure_class_meta t;
  t.all_stamp = 0 && (c < 0 || c >= Array.length t.class_stale || not t.class_stale.(c))

let novel_sequences t = t.novel_paths

(* Bookkeeping hooks for the update layer. *)
let note_new_page t = t.page_count <- t.page_count + 1
let note_nodes_delta t delta = t.node_count <- t.node_count + delta

let note_mutation t =
  t.mutations <- t.mutations + 1;
  (* Pid-less mutation: conservatively stales every cluster and class. *)
  t.all_stamp <- t.mutations

let note_mutation_at t pid =
  t.mutations <- t.mutations + 1;
  Hashtbl.replace t.page_stamps pid t.mutations;
  (match t.write_log with Some tbl -> Hashtbl.replace tbl pid () | None -> ());
  stale_classes_at t pid

let note_inserted t ~tags =
  match t.partition with
  | None -> ()
  | Some p -> begin
    ensure_class_meta t;
    match
      Path_partition.select p ~matches:(fun seq ->
          Array.length seq = Array.length tags && Array.for_all2 Xnav_xml.Tag.equal seq tags)
    with
    | c :: _ -> if not t.class_stale.(c) then t.class_stale.(c) <- true
    | [] ->
      (* A tag sequence the import never saw: no class has an entry list
         for it, so queries matching this shape must not index-seed. *)
      let known =
        List.exists
          (fun seq ->
            Array.length seq = Array.length tags && Array.for_all2 Xnav_xml.Tag.equal seq tags)
          t.novel_paths
      in
      if not known then t.novel_paths <- Array.copy tags :: t.novel_paths
  end

let set_swizzling t on = t.swizzle <- on
let swizzling t = t.swizzle
let swizzle_stats t = (t.swizzle_hits, t.swizzle_misses)

let tag_count t tag =
  match Hashtbl.find_opt t.tag_table tag with Some n -> n | None -> 0

(* --- Views ------------------------------------------------------------ *)

(* A view is the swizzled representation of a pinned cluster: alongside
   the frame it carries a per-slot cache of decoded records, so repeated
   navigation over the page (cursor re-walks, speculative seeds, the
   XStep chain) never re-enters the record codec. The cache is dropped
   when the store mutates ([stamp] falls behind [mutations]) and the
   whole view dies on {!release} — a swizzled handle must not survive
   its pin. *)
type view = {
  pid : int;
  frame : Buffer_manager.frame;
  page : Page.t;
  owner : t;
  cache : Node_record.t option array;  (* [||] when swizzling is off *)
  nav : int array;
      (* packed navigation words ({!Node_record.nav_of_bytes}), 0 = not
         yet parsed; [||] when swizzling is off *)
  mutable stamp : int;
  mutable live : bool;
}

let make_view t frame =
  touch t (Buffer_manager.frame_pid frame);
  let page = Buffer_manager.page frame in
  let slots = Page.slot_count page in
  let cache = if t.swizzle then Array.make slots None else [||] in
  let nav = if t.swizzle then Array.make slots 0 else [||] in
  {
    pid = Buffer_manager.frame_pid frame;
    frame;
    page;
    owner = t;
    cache;
    nav;
    stamp = t.mutations;
    live = true;
  }

let view t pid = make_view t (Buffer_manager.fix t.buffer pid)
let view_of_frame t frame = make_view t frame

let release t v =
  if not v.live then invalid_arg "Store.release: view already released";
  v.live <- false;
  Buffer_manager.unfix t.buffer v.frame

let view_valid v = v.live
let view_pid v = v.pid

let check_live v =
  if not v.live then
    invalid_arg (Printf.sprintf "Store: swizzled view of page %d used after release" v.pid)

(* The store changed under the pin: drop the cached decodes — but only
   when the mutation actually touched {e this} cluster (the page bytes
   themselves are write-through, so a re-decode sees the updated
   record). A write elsewhere fast-forwards the stamp and keeps the
   swizzled decodes, which is what makes invalidation cluster-granular. *)
let revalidate v t =
  if v.stamp <> t.mutations then begin
    if page_stamp t v.pid > v.stamp then begin
      Array.fill v.cache 0 (Array.length v.cache) None;
      Array.fill v.nav 0 (Array.length v.nav) 0
    end;
    v.stamp <- t.mutations
  end

let get v slot =
  check_live v;
  let t = v.owner in
  if not t.swizzle then Node_record.decode (Page.get v.page slot)
  else begin
    revalidate v t;
    if slot >= 0 && slot < Array.length v.cache then begin
      match v.cache.(slot) with
      | Some record ->
        t.swizzle_hits <- t.swizzle_hits + 1;
        record
      | None ->
        let record = Node_record.decode (Page.get v.page slot) in
        t.swizzle_misses <- t.swizzle_misses + 1;
        v.cache.(slot) <- Some record;
        record
    end
    else begin
      (* Slots appended after the view was built: decode uncached. *)
      t.swizzle_misses <- t.swizzle_misses + 1;
      Node_record.decode (Page.get v.page slot)
    end
  end

(* The fused automaton's record access: the packed navigation word,
   parsed in place from the page buffer — no record string copy, no slot
   options, no ordpath. Shares the swizzle counters and the mutation
   stamp with [get]; a parsed word is cached per slot exactly like a
   decoded record (0 marks an unparsed slot — [nav_of_bytes] never
   returns it). *)
let nav v slot =
  check_live v;
  let t = v.owner in
  if not t.swizzle then
    Node_record.nav_of_bytes (Page.to_bytes v.page) (Page.record_offset v.page slot)
  else begin
    revalidate v t;
    if slot >= 0 && slot < Array.length v.nav then begin
      let word = v.nav.(slot) in
      if word <> 0 then begin
        t.swizzle_hits <- t.swizzle_hits + 1;
        word
      end
      else begin
        let word =
          Node_record.nav_of_bytes (Page.to_bytes v.page) (Page.record_offset v.page slot)
        in
        t.swizzle_misses <- t.swizzle_misses + 1;
        v.nav.(slot) <- word;
        word
      end
    end
    else begin
      t.swizzle_misses <- t.swizzle_misses + 1;
      Node_record.nav_of_bytes (Page.to_bytes v.page) (Page.record_offset v.page slot)
    end
  end

let id_of v slot = Node_id.make ~pid:v.pid ~slot

let iter_records v f =
  check_live v;
  Page.iter (fun slot encoded -> f slot (Node_record.decode encoded)) v.page

let up_slots v =
  check_live v;
  (* Discriminator peek only — copying every record out of the page just
     to look at byte 0 dominated the scan profile. *)
  let acc = ref [] in
  for slot = Page.slot_count v.page - 1 downto 0 do
    if Page.mem v.page slot then
      match Page.record_byte v.page slot with
      | '\002' | '\003' -> acc := slot :: !acc
      | _ -> ()
  done;
  !acc

(* --- Intra-cluster cursors --------------------------------------------- *)

type emission = Reached of int * Node_record.core | Crossing of int * Node_id.t

(* A chain task walks a sibling chain; [descend] additionally visits each
   core's subtree in preorder. *)
type task = T_node of int * Node_record.core * bool | T_chain of int option * bool

type cursor = { view : view; mutable agenda : task list }

let core_at v slot =
  match get v slot with
  | Node_record.Core c -> c
  | Node_record.Down _ | Node_record.Up _ ->
    invalid_arg (Printf.sprintf "Store: slot %d is a border record" slot)

let up_at v slot =
  match get v slot with
  | Node_record.Up u -> u
  | Node_record.Core _ | Node_record.Down _ ->
    invalid_arg (Printf.sprintf "Store: slot %d is not an Up border" slot)

let check_downward axis =
  if not (Axis.is_downward axis) then
    invalid_arg
      (Printf.sprintf "Store: axis %s has no intra-cluster cursor (use global_axis)"
         (Axis.to_string axis))

let start v axis slot =
  check_downward axis;
  let core = core_at v slot in
  let agenda =
    match (axis : Axis.t) with
    | Self -> [ T_node (slot, core, false) ]
    | Child -> [ T_chain (core.first_child, false) ]
    | Descendant -> [ T_chain (core.first_child, true) ]
    | Descendant_or_self -> [ T_node (slot, core, true) ]
    | Parent | Ancestor | Ancestor_or_self | Following_sibling | Preceding_sibling ->
      assert false
  in
  { view = v; agenda }

let resume v axis slot =
  check_downward axis;
  let up = up_at v slot in
  let agenda =
    match (axis : Axis.t) with
    | Self -> []
    | Child -> [ T_chain (up.first_child, false) ]
    | Descendant | Descendant_or_self -> [ T_chain (up.first_child, true) ]
    | Parent | Ancestor | Ancestor_or_self | Following_sibling | Preceding_sibling ->
      assert false
  in
  { view = v; agenda }

let rec next_emission cursor =
  match cursor.agenda with
  | [] -> None
  | T_node (slot, core, descend) :: rest ->
    cursor.agenda <- (if descend then T_chain (core.first_child, true) :: rest else rest);
    Some (Reached (slot, core))
  | T_chain (None, _) :: rest ->
    cursor.agenda <- rest;
    next_emission cursor
  | T_chain (Some slot, descend) :: rest -> begin
    match get cursor.view slot with
    | Node_record.Core core ->
      (* Emit directly instead of re-queuing a T_node: preorder means
         self, then subtree, then next sibling, so the follow-up agenda
         is known right here. *)
      cursor.agenda <-
        (if descend then
           T_chain (core.first_child, true) :: T_chain (core.next_sibling, true) :: rest
         else T_chain (core.next_sibling, false) :: rest);
      Some (Reached (slot, core))
    | Node_record.Down down ->
      cursor.agenda <- T_chain (down.next_sibling, descend) :: rest;
      Some (Crossing (slot, down.target))
    | Node_record.Up _ -> assert false (* Up records never sit in chains *)
  end

(* --- Whole-node access -------------------------------------------------- *)

type info = { id : Node_id.t; tag : Xnav_xml.Tag.t; ordpath : Xnav_xml.Ordpath.t }

let read t (id : Node_id.t) =
  touch t id.pid;
  let frame = Buffer_manager.fix t.buffer id.pid in
  (* Decode under the pin, but never leak it: a stale slot (removed by a
     concurrent delete) makes [Page.get] raise, and callers probing for
     exactly that condition must find the pool balanced afterwards. *)
  match Node_record.decode (Page.get (Buffer_manager.page frame) id.slot) with
  | record ->
    Buffer_manager.unfix t.buffer frame;
    record
  | exception e ->
    Buffer_manager.unfix t.buffer frame;
    raise e

(* --- Global navigation --------------------------------------------------- *)

(* One in-place walker serves every border-transparent axis: the Simple
   plan, fallback mode, [info] and the reference evaluators all run on
   it. Each record access is one [load] — touch, fix, parse the few
   fields the walk needs straight from the page bytes, unfix — so a step
   costs the buffer lookup the paper charges per edge and little else:
   no record copy, no slot options, and an ordpath only for a node the
   walk emits, decoded under the pin of the read that found it.

   The fix sequence is the specification: one [load] per record the
   chain walk visits, in the same order as a decode-per-record walk, so
   buffer lookups, LRU ticks, evictions and the simulated I/O trace do
   not depend on how much of each record is parsed. Chain positions are
   (pid, slot, anchor slot) triples with -1 for "none"; at the end of a
   run the walk re-reads the anchor and, for a mid-chain run (an Up with
   [continues]), resumes after the run's Down. *)

let m_done = 0
let m_chain = 1 (* sibling chain; [descend] adds each node's subtree *)
let m_prev = 2 (* preceding siblings, backwards *)
let m_parent = 3
let m_ancestors = 4

type walker = {
  store : t;
  test : int;  (* tag id an emitted node must carry; -1 = any *)
  ordpaths : bool;  (* decode the ordpath of emitted nodes *)
  f : Node_record.fields;  (* the record the last [load] read *)
  mutable ordpath : Xnav_xml.Ordpath.t;  (* of the last emitted node *)
  mutable mode : int;
  mutable descend : bool;
  mutable self_pending : bool;
  mutable cpid : int;  (* the context node; the ancestor walk's cursor *)
  mutable cslot : int;
  mutable stop_pid : int;  (* the Up a resumed walk must not leave by *)
  mutable stop_slot : int;
  mutable stack : int array;  (* chain positions, three ints each *)
  mutable sp : int;
  (* The node the last successful [walk_next] emitted. *)
  mutable pid : int;
  mutable slot : int;
}

let walker ?(test = -1) ?(ordpaths = true) store =
  {
    store;
    test;
    ordpaths;
    f = Node_record.fields ();
    ordpath = Xnav_xml.Ordpath.root;
    mode = m_done;
    descend = false;
    self_pending = false;
    cpid = -1;
    cslot = -1;
    stop_pid = -1;
    stop_slot = -1;
    stack = [||];
    sp = 0;
    pid = -1;
    slot = -1;
  }

let matches w = w.test < 0 || w.test = w.f.tag_id

let fields w page slot ~emit =
  let b = Page.to_bytes page and off = Page.record_offset page slot in
  Node_record.read_fields w.f b off;
  if emit && w.ordpaths && w.f.kind = Node_record.nav_core && matches w then
    w.ordpath <- Node_record.ordpath_at b off

(* One record access. [emit] marks the read of a node the walk may
   return: only such a read decodes an ordpath. The pin never leaks — a
   stale slot raises from [Page.record_offset] with the pool balanced. *)
let load w pid slot ~emit =
  let t = w.store in
  touch t pid;
  let frame = Buffer_manager.fix t.buffer pid in
  match fields w (Buffer_manager.page frame) slot ~emit with
  | () -> Buffer_manager.unfix t.buffer frame
  | exception e ->
    Buffer_manager.unfix t.buffer frame;
    raise e

let border_context () = invalid_arg "Store.global_axis: context is a border record"

let load_context w pid slot =
  load w pid slot ~emit:false;
  if w.f.kind <> Node_record.nav_core then border_context ()

(* Read a core node as the walk's emission. *)
let load_core w pid slot =
  load w pid slot ~emit:true;
  if w.f.kind <> Node_record.nav_core then
    invalid_arg
      (Printf.sprintf "Store.info: %s is a border record"
         (Node_id.to_string (Node_id.make ~pid ~slot)));
  w.pid <- pid;
  w.slot <- slot

let push w pid slot parent =
  let i = 3 * w.sp in
  if i + 3 > Array.length w.stack then begin
    let grown = Array.make (max 24 (2 * Array.length w.stack)) 0 in
    Array.blit w.stack 0 grown 0 i;
    w.stack <- grown
  end;
  w.stack.(i) <- pid;
  w.stack.(i + 1) <- slot;
  w.stack.(i + 2) <- parent;
  w.sp <- w.sp + 1

(* Forward chain walk from (pid, slot, par) to the next core, loaded and
   recorded as [w.pid]/[w.slot]; false at the end of the chain. A Down
   is resolved eagerly through its Up; at the end of a run the walk
   resumes after the run's Down unless the anchor is the stop Up (the
   entry of a resumed walk, whose post-run siblings belong to the cluster
   the crossing came from). The stop check applies at the walk's own
   level only, not inside a run entered through a Down. *)
let rec chain_next w pid slot par ~stop =
  if slot < 0 then begin
    if par < 0 then false
    else begin
      load w pid par ~emit:false;
      if w.f.kind = Node_record.nav_core then false (* true end of the children list *)
      else if w.f.kind = Node_record.nav_up then begin
        if (not w.f.continues) || (stop && w.stop_pid = pid && w.stop_slot = par) then false
        else begin
          let dpid = w.f.target_pid in
          load w dpid w.f.target_slot ~emit:false;
          if w.f.kind <> Node_record.nav_down then assert false;
          chain_next w dpid w.f.next_sibling w.f.parent ~stop
        end
      end
      else assert false
    end
  end
  else begin
    load w pid slot ~emit:true;
    if w.f.kind = Node_record.nav_core then begin
      w.pid <- pid;
      w.slot <- slot;
      true
    end
    else if w.f.kind = Node_record.nav_down then begin
      let upid = w.f.target_pid and uslot = w.f.target_slot in
      load w upid uslot ~emit:false;
      if w.f.kind <> Node_record.nav_up then assert false;
      chain_next w upid w.f.first_child uslot ~stop:false
    end
    else assert false (* Up records never sit in chains *)
  end

(* Backward walk: at the head of a run, jump through the anchoring Up to
   the Down that stands for the run and continue before it; a Down met
   on the way stands for a remote run, walked from its last entry. *)
let rec chain_prev w pid slot par =
  if slot < 0 then begin
    if par < 0 then false
    else begin
      load w pid par ~emit:false;
      if w.f.kind = Node_record.nav_core then false (* true start of the children list *)
      else if w.f.kind = Node_record.nav_up then begin
        let dpid = w.f.target_pid in
        load w dpid w.f.target_slot ~emit:false;
        if w.f.kind <> Node_record.nav_down then assert false;
        chain_prev w dpid w.f.prev_sibling w.f.parent
      end
      else assert false
    end
  end
  else begin
    load w pid slot ~emit:true;
    if w.f.kind = Node_record.nav_core then begin
      w.pid <- pid;
      w.slot <- slot;
      true
    end
    else if w.f.kind = Node_record.nav_down then begin
      let upid = w.f.target_pid and uslot = w.f.target_slot in
      load w upid uslot ~emit:false;
      if w.f.kind <> Node_record.nav_up then assert false;
      chain_prev w upid w.f.last_child uslot
    end
    else assert false
  end

(* The parent of core (pid, slot): re-read the node, then its parent
   slot — a core, or an Up whose owner is the logical parent. *)
let parent_step w pid slot =
  load_context w pid slot;
  let pslot = w.f.parent in
  if pslot < 0 then false
  else begin
    load w pid pslot ~emit:true;
    if w.f.kind = Node_record.nav_core then begin
      w.pid <- pid;
      w.slot <- pslot;
      true
    end
    else if w.f.kind = Node_record.nav_up then begin
      load_core w w.f.owner_pid w.f.owner_slot;
      true
    end
    else assert false
  end

let reset w pid slot =
  w.mode <- m_done;
  w.descend <- false;
  w.self_pending <- false;
  w.cpid <- pid;
  w.cslot <- slot;
  w.stop_pid <- -1;
  w.stop_slot <- -1;
  w.sp <- 0

(* The axes that read the context eagerly do so here, when the walk
   starts — not at the first [walk_next]. *)
let walk w axis ~pid ~slot =
  reset w pid slot;
  match (axis : Axis.t) with
  | Self -> w.self_pending <- true
  | Child ->
    load_context w pid slot;
    push w pid w.f.first_child slot;
    w.mode <- m_chain
  | Descendant | Descendant_or_self ->
    load_context w pid slot;
    push w pid w.f.first_child slot;
    w.mode <- m_chain;
    w.descend <- true;
    (* The self emission re-reads the node at the first [walk_next]. *)
    w.self_pending <- axis = Descendant_or_self
  | Following_sibling ->
    load_context w pid slot;
    push w pid w.f.next_sibling w.f.parent;
    w.mode <- m_chain
  | Preceding_sibling ->
    load_context w pid slot;
    push w pid w.f.prev_sibling w.f.parent;
    w.mode <- m_prev
  | Parent -> w.mode <- m_parent
  | Ancestor -> w.mode <- m_ancestors
  | Ancestor_or_self ->
    w.mode <- m_ancestors;
    w.self_pending <- true

let walk_resume w axis (up_id : Node_id.t) =
  check_downward axis;
  reset w up_id.pid up_id.slot;
  load w up_id.pid up_id.slot ~emit:false;
  if w.f.kind <> Node_record.nav_up then
    invalid_arg "Store.global_resume: entry is not an Up border";
  match (axis : Axis.t) with
  | Self -> ()
  | Child | Descendant | Descendant_or_self ->
    (* Only this run and its subtrees: the walk must not resume past the
       run's own Down (those siblings were enumerated in the cluster the
       crossing came from). *)
    push w up_id.pid w.f.first_child up_id.slot;
    w.stop_pid <- up_id.pid;
    w.stop_slot <- up_id.slot;
    w.mode <- m_chain;
    w.descend <- axis <> Child
  | Parent | Ancestor | Ancestor_or_self | Following_sibling | Preceding_sibling ->
    assert false (* excluded by check_downward *)

let rec walk_next w =
  if w.self_pending then begin
    w.self_pending <- false;
    load_core w w.cpid w.cslot;
    matches w || walk_next w
  end
  else if w.mode = m_chain then begin
    if w.sp = 0 then begin
      w.mode <- m_done;
      false
    end
    else begin
      let top = 3 * (w.sp - 1) in
      let s = w.stack in
      if chain_next w s.(top) s.(top + 1) s.(top + 2) ~stop:true then begin
        (* The sibling continuation replaces the position; the subtree
           goes on top of it (preorder). *)
        s.(top) <- w.pid;
        s.(top + 1) <- w.f.next_sibling;
        s.(top + 2) <- w.f.parent;
        if w.descend then push w w.pid w.f.first_child w.slot;
        matches w || walk_next w
      end
      else begin
        w.sp <- w.sp - 1;
        walk_next w
      end
    end
  end
  else if w.mode = m_prev then begin
    let s = w.stack in
    if chain_prev w s.(0) s.(1) s.(2) then begin
      s.(0) <- w.pid;
      s.(1) <- w.f.prev_sibling;
      s.(2) <- w.f.parent;
      matches w || walk_next w
    end
    else begin
      w.mode <- m_done;
      false
    end
  end
  else if w.mode = m_parent then begin
    w.mode <- m_done;
    parent_step w w.cpid w.cslot && (matches w || walk_next w)
  end
  else if w.mode = m_ancestors then begin
    if parent_step w w.cpid w.cslot then begin
      w.cpid <- w.pid;
      w.cslot <- w.slot;
      matches w || walk_next w
    end
    else begin
      w.mode <- m_done;
      false
    end
  end
  else false

let walk_pid w = w.pid
let walk_slot w = w.slot

let walk_info w =
  {
    id = Node_id.make ~pid:w.pid ~slot:w.slot;
    tag = Xnav_xml.Tag.of_id w.f.tag_id;
    ordpath = w.ordpath;
  }

let info t (id : Node_id.t) =
  let w = walker t in
  load_core w id.pid id.slot;
  walk_info w

let enumerate w () = if walk_next w then Some (walk_info w) else None

let global_axis t axis (id : Node_id.t) =
  let w = walker t in
  walk w axis ~pid:id.pid ~slot:id.slot;
  enumerate w

let global_resume t axis up_id =
  let w = walker t in
  walk_resume w axis up_id;
  enumerate w

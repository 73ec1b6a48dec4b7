module Store = Xnav_store.Store
module Node_record = Xnav_store.Node_record
module Path = Xnav_xpath.Path
module Axis = Xnav_xml.Axis
open Path_instance

(* The fused operator compiles the whole downward chain into one explicit
   state machine per cluster visit. Its work-stack replaces every layer
   of the iterator chain at once:

   - the chain of XStep closures (one intermediate Path_instance
     allocated and consumed per extension),
   - each XStep's intra-cluster cursor (a heap agenda plus one [emission]
     allocation per node pulled through {!Store.next_emission}), and
   - the full record decode behind both (~90 heap words per record:
     page-copy string, slot options, ordpath — the dominant scan CPU).

   A stack entry is one unboxed int packing (step, sibling-chain
   position, descend flag); processing it reads the record's packed
   navigation word ({!Store.nav}) straight off the page bytes and
   re-pushes at most two packed continuations (next sibling, subtree).
   Node tests compare the word's tag id against a per-state tag table.
   Nothing is allocated per transition — only results (S_R = path
   length, full-decoded then) and deferred crossings materialise a
   Path_instance.

   Local entries (>= 0):  bits 26.. = step i | bit 25 = descend
                          | bits 0..24 = chain slot + 1.
   Global entries (< 0):  -((i lsl 26) lor (gidx + 1)) where [gidx]
                          indexes the side table of fallback / info
                          enumerators (cold path: closures are fine
                          there).

   Slot numbers are bounded by the page's slot directory (a few thousand
   at most) and step indices by the path length, so the packing never
   overflows a 63-bit int. *)

let local_entry ~i ~descend slot =
  (i lsl 26) lor (if descend then 1 lsl 25 else 0) lor (slot + 1)

type t = {
  ctx : Context.t;
  cnt : Context.metrics;  (* ctx.counters, loaded once for the hot loop *)
  path_len : int;
  test_tags : int array;
      (* the per-state node-test table: test_tags.(i - 1) is chain step
         [i]'s required tag id, -1 when any tag matches *)
  tests : Path.node_test array;  (* same tests, for the (cold) global path *)
  axes : Axis.t array;
  producer : unit -> Path_instance.t option;
  stack : int Vec.t;
  globals : (unit -> Store.info option) Vec.t;
      (* enumerators referenced by negative stack entries; cleared
         whenever the stack drains *)
  (* The current episode: the cluster and left fields of the producer
     instance whose chain suffix we are walking. Constant down the whole
     stack — the XStep chain copied them into every intermediate
     instance; here they live once. *)
  mutable view : Store.view option;
  mutable s_l : int;
  mutable n_l : Xnav_store.Node_id.t;
  mutable left_incomplete : bool;
}

let create ctx ~path producer =
  {
    ctx;
    cnt = ctx.Context.counters;
    path_len = Path.length path;
    test_tags =
      Array.of_list
        (List.map
           (fun (s : Path.step) ->
             match s.Path.test with
             | Path.Name tag -> Xnav_xml.Tag.id tag
             | Path.Wildcard | Path.Any_node -> -1)
           path);
    tests = Array.of_list (List.map (fun (s : Path.step) -> s.Path.test) path);
    axes = Array.of_list (List.map (fun (s : Path.step) -> s.Path.axis) path);
    producer;
    stack = Vec.create ();
    globals = Vec.create ();
    view = None;
    s_l = 0;
    n_l = Xnav_store.Node_id.make ~pid:0 ~slot:0;
    left_incomplete = false;
  }

let push_chain t ~i ~descend slot =
  if slot >= 0 then Vec.push t.stack (local_entry ~i ~descend slot)

(* Opening the enumeration for a step counts as one automaton state —
   the analogue of "allocate an intermediate instance, hand it to the
   next XStep, open its cursor" in the chain. Sibling-continuation
   re-pushes inside a chain walk are not new states. *)
let push_global t ~i enum =
  t.cnt.Context.fused_states <- t.cnt.Context.fused_states + 1;
  let gidx = Vec.length t.globals in
  Vec.push t.globals enum;
  Vec.push t.stack (-((i lsl 26) lor (gidx + 1)))

(* Emit a finished instance. Only results (S_R = path length) and
   deferred crossings allocate a Path_instance — the per-step
   intermediates of the iterator chain are gone, which is the point. *)
let emit t ~s_r n_r =
  t.cnt.Context.instances <- t.cnt.Context.instances + 1;
  Some { s_l = t.s_l; n_l = t.n_l; left_incomplete = t.left_incomplete; s_r; n_r }

(* A result: the node in [slot] matched the final step. Only here does
   the full record get decoded — XAssembly and the executor need its
   ordpath and the rest of the core. *)
let emit_result t ~slot view =
  match Store.get view slot with
  | Node_record.Core core -> emit t ~s_r:t.path_len (R_core { view; slot; core })
  | Node_record.Down _ | Node_record.Up _ -> assert false (* the nav word said Core *)

(* [open_step] starts chain step [i]'s enumeration from a core node that
   matched step [i - 1] (or from the episode's seed), given that node's
   navigation word [w]. The fallback check happens here, at push time —
   exactly when the iterator chain consumed the corresponding
   intermediate instance and chose a local cursor vs a global
   enumerator. [reached] handles a node that matched step [i]: either
   the path is complete or the next step opens from it. *)
let rec open_step t ~i ~slot ~w view =
  if Context.fallback t.ctx then begin
    let enum =
      Store.global_axis t.ctx.Context.store t.axes.(i - 1) (Store.id_of view slot)
    in
    push_global t ~i enum;
    next t
  end
  else begin
    match t.axes.(i - 1) with
    | Axis.Self ->
      t.cnt.Context.fused_transitions <- t.cnt.Context.fused_transitions + 1;
      let want = t.test_tags.(i - 1) in
      if want < 0 || want = Node_record.nav_high w then reached t ~i ~slot ~w view else next t
    | Axis.Child ->
      t.cnt.Context.fused_states <- t.cnt.Context.fused_states + 1;
      push_chain t ~i ~descend:false (Node_record.nav_link1 w);
      next t
    | Axis.Descendant ->
      t.cnt.Context.fused_states <- t.cnt.Context.fused_states + 1;
      push_chain t ~i ~descend:true (Node_record.nav_link1 w);
      next t
    | Axis.Descendant_or_self ->
      t.cnt.Context.fused_states <- t.cnt.Context.fused_states + 1;
      (* Subtree below, self-test on top: the node's own extensions
         drain before its descendants, preorder. *)
      push_chain t ~i ~descend:true (Node_record.nav_link1 w);
      t.cnt.Context.fused_transitions <- t.cnt.Context.fused_transitions + 1;
      let want = t.test_tags.(i - 1) in
      if want < 0 || want = Node_record.nav_high w then reached t ~i ~slot ~w view else next t
    | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following_sibling
    | Axis.Preceding_sibling ->
      assert false (* Exec only fuses downward paths *)
  end

and reached t ~i ~slot ~w view =
  if i = t.path_len then emit_result t ~slot view else open_step t ~i:(i + 1) ~slot ~w view

(* Continue step [i] across a border entry (the episode seed is an
   [R_entry]): the [Up] record anchors the remote run of the sibling
   chain being enumerated. Mirrors {!Store.resume} — [Self] never
   crosses, so a speculative self-seed enumerates nothing locally. *)
and open_resume t ~i ~slot view =
  if Context.fallback t.ctx then begin
    let enum =
      Store.global_resume t.ctx.Context.store t.axes.(i - 1) (Store.id_of view slot)
    in
    push_global t ~i enum;
    next t
  end
  else begin
    let w = Store.nav view slot in
    if Node_record.nav_kind w <> Node_record.nav_up then
      invalid_arg "Fused: R_entry does not name an Up border record";
    match t.axes.(i - 1) with
    | Axis.Self -> next t
    | Axis.Child ->
      t.cnt.Context.fused_states <- t.cnt.Context.fused_states + 1;
      push_chain t ~i ~descend:false (Node_record.nav_link1 w);
      next t
    | Axis.Descendant | Axis.Descendant_or_self ->
      t.cnt.Context.fused_states <- t.cnt.Context.fused_states + 1;
      push_chain t ~i ~descend:true (Node_record.nav_link1 w);
      next t
    | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following_sibling
    | Axis.Preceding_sibling ->
      assert false
  end

and next t =
  if Vec.length t.stack = 0 then begin
    (* Stack drained: the episode is over. Drop its fallback enumerators
       and pull the producer (it may release its current view on the
       next visit — same discipline as the chain, which only reached the
       producer once every XStep state was exhausted). *)
    if Vec.length t.globals > 0 then Vec.clear t.globals;
    match t.producer () with
    | None -> None
    | Some p ->
      if p.s_r >= t.path_len then Some p (* already right-complete: forward *)
      else begin
        match p.n_r with
        | R_pending _ -> Some p (* an upstream-deferred crossing: not ours *)
        | R_core { view; slot; _ } ->
          t.s_l <- p.s_l;
          t.n_l <- p.n_l;
          t.left_incomplete <- p.left_incomplete;
          t.view <- Some view;
          let w = Store.nav view slot in
          if Node_record.nav_kind w <> Node_record.nav_core then
            invalid_arg "Fused: instance right end is not a core record";
          open_step t ~i:(p.s_r + 1) ~slot ~w view
        | R_entry { view; slot } ->
          t.s_l <- p.s_l;
          t.n_l <- p.n_l;
          t.left_incomplete <- p.left_incomplete;
          t.view <- Some view;
          open_resume t ~i:(p.s_r + 1) ~slot view
        | R_info info ->
          t.s_l <- p.s_l;
          t.n_l <- p.n_l;
          t.left_incomplete <- p.left_incomplete;
          push_global t ~i:(p.s_r + 1)
            (Store.global_axis t.ctx.Context.store t.axes.(p.s_r) info.Store.id);
          next t
      end
  end
  else begin
    let e = Vec.pop t.stack in
    if e >= 0 then begin
      (* Local chain entry: one record of the current cluster, as a
         packed navigation word straight off the page bytes. *)
      let i = e lsr 26 in
      let descend = e land (1 lsl 25) <> 0 in
      let slot = (e land 0x1FFFFFF) - 1 in
      let view =
        match t.view with Some v -> v | None -> assert false (* local entries imply a view *)
      in
      let w = Store.nav view slot in
      let kind = Node_record.nav_kind w in
      if kind = Node_record.nav_core then begin
        t.cnt.Context.fused_transitions <- t.cnt.Context.fused_transitions + 1;
        (* Continuations first (siblings below, subtree on top), then
           the node test — a match pushes the next step's entries above
           both, preserving the chain's depth-first order. *)
        push_chain t ~i ~descend (Node_record.nav_link2 w);
        if descend then push_chain t ~i ~descend:true (Node_record.nav_link1 w);
        let want = t.test_tags.(i - 1) in
        if want < 0 || want = Node_record.nav_high w then reached t ~i ~slot ~w view
        else next t
      end
      else if kind = Node_record.nav_down then begin
        t.cnt.Context.fused_transitions <- t.cnt.Context.fused_transitions + 1;
        t.cnt.Context.crossings <- t.cnt.Context.crossings + 1;
        let target =
          Xnav_store.Node_id.make ~pid:(Node_record.nav_high w) ~slot:(Node_record.nav_link2 w)
        in
        if Context.tracing t.ctx then
          Context.emit t.ctx (fun () ->
              Printf.sprintf "XStep_%d: inter-cluster edge -> %s deferred" i
                (Xnav_store.Node_id.to_string target));
        (* Right-incomplete: S_R stays i-1, the node test is deferred.
           The sibling continuation stays on the stack — enumeration
           resumes after XAssembly routes the crossing. *)
        push_chain t ~i ~descend (Node_record.nav_link1 w);
        emit t ~s_r:(i - 1) (R_pending target)
      end
      else assert false (* Up records never sit in chains *)
    end
    else begin
      (* Global entry (fallback / info-seeded): border-transparent
         enumeration through the side table. *)
      let key = -e in
      let i = key lsr 26 in
      let enum = Vec.get t.globals ((key land 0x3FFFFFF) - 1) in
      match enum () with
      | Some info ->
        t.cnt.Context.fused_transitions <- t.cnt.Context.fused_transitions + 1;
        Vec.push t.stack e;
        (* the enumerator stays armed *)
        if Path.matches t.tests.(i - 1) info.Store.tag then begin
          if i = t.path_len then emit t ~s_r:i (R_info info)
          else begin
            push_global t ~i:(i + 1)
              (Store.global_axis t.ctx.Context.store t.axes.(i) info.Store.id);
            next t
          end
        end
        else next t
      | None -> next t (* already popped: the frame just dies *)
    end
  end

let create ctx ~path producer =
  if path = [] then invalid_arg "Fused.create: empty path";
  let t = create ctx ~path producer in
  fun () -> next t

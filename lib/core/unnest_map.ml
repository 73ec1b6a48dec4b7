module Store = Xnav_store.Store
module Node_id = Xnav_store.Node_id
module Path = Xnav_xpath.Path

(* Nodes one step has already produced, for intermediate duplicate
   elimination: a bitset per page, allocated at the page's first mark
   and grown to the highest slot seen. *)
type seen = { mutable pages : Bytes.t array }

let mark seen pid slot =
  if pid >= Array.length seen.pages then begin
    let grown = Array.make (max 16 (2 * (pid + 1))) Bytes.empty in
    Array.blit seen.pages 0 grown 0 (Array.length seen.pages);
    seen.pages <- grown
  end;
  let byte = slot lsr 3 in
  let bits = seen.pages.(pid) in
  let bits =
    if byte < Bytes.length bits then bits
    else begin
      let grown = Bytes.make (max 16 (2 * (byte + 1))) '\000' in
      Bytes.blit bits 0 grown 0 (Bytes.length bits);
      seen.pages.(pid) <- grown;
      grown
    end
  in
  let v = Char.code (Bytes.get bits byte) and bit = 1 lsl (slot land 7) in
  v land bit = 0
  &&
  (Bytes.set bits byte (Char.chr (v lor bit));
   true)

type t = {
  ctx : Context.t;
  axes : Xnav_xml.Axis.t array;
  walkers : Store.walker array;  (* one per step *)
  seen : seen array;  (* one per step, with [dedup] *)
  dedup : bool;
  mutable contexts : Node_id.t list;
  mutable depth : int;  (* deepest step with a live walk; -1: none *)
}

(* Depth-first over the step walkers — the order in which a chain of
   per-step iterators pulls its producers, so the fix sequence is the
   chain's: a step's walk resumes only once every deeper walk it
   started is exhausted. *)
let rec next u =
  if u.depth < 0 then begin
    match u.contexts with
    | [] -> None
    | (id : Node_id.t) :: rest ->
      u.contexts <- rest;
      Store.walk u.walkers.(0) u.axes.(0) ~pid:id.pid ~slot:id.slot;
      u.depth <- 0;
      next u
  end
  else begin
    let w = u.walkers.(u.depth) in
    if not (Store.walk_next w) then begin
      u.depth <- u.depth - 1;
      next u
    end
    else begin
      let c = u.ctx.Context.counters in
      let pid = Store.walk_pid w and slot = Store.walk_slot w in
      if u.dedup && not (mark u.seen.(u.depth) pid slot) then begin
        c.Context.dedup_hits <- c.Context.dedup_hits + 1;
        next u
      end
      else begin
        c.Context.instances <- c.Context.instances + 1;
        if u.depth = Array.length u.walkers - 1 then Some (Store.walk_info w)
        else begin
          u.depth <- u.depth + 1;
          Store.walk u.walkers.(u.depth) u.axes.(u.depth) ~pid ~slot;
          next u
        end
      end
    end
  end

let create ctx ~path ~dedup contexts =
  if path = [] then invalid_arg "Unnest_map.create: empty path";
  let store = ctx.Context.store in
  (* Contexts are read (and checked to be core nodes) up front. *)
  List.iter (fun id -> ignore (Store.info store id)) contexts;
  let steps = Array.of_list path in
  let last = Array.length steps - 1 in
  let u =
    {
      ctx;
      axes = Array.map (fun (s : Path.step) -> s.Path.axis) steps;
      walkers =
        Array.mapi
          (fun i (s : Path.step) ->
            let test =
              match s.Path.test with
              | Path.Name tag -> Xnav_xml.Tag.id tag
              | Path.Wildcard | Path.Any_node -> -1
            in
            Store.walker ~test ~ordpaths:(i = last) store)
          steps;
      seen = Array.init (if dedup then Array.length steps else 0) (fun _ -> { pages = [||] });
      dedup;
      contexts;
      depth = -1;
    }
  in
  fun () -> next u

type core = {
  tag : Xnav_xml.Tag.t;
  ordpath : Xnav_xml.Ordpath.t;
  parent : int option;
  first_child : int option;
  last_child : int option;
  next_sibling : int option;
  prev_sibling : int option;
}

type down = {
  parent : int option;
  next_sibling : int option;
  prev_sibling : int option;
  target : Node_id.t;
}

type up = {
  first_child : int option;
  last_child : int option;
  target : Node_id.t;
  owner : Node_id.t;
  continues : bool;
}

type t = Core of core | Down of down | Up of up

let is_border = function Core _ -> false | Down _ | Up _ -> true

let target = function
  | Core _ -> invalid_arg "Node_record.target: core records have no target"
  | Down d -> d.target
  | Up u -> u.target

let none_slot = 0xffff

let add_slot buf slot =
  let v = match slot with None -> none_slot | Some s -> s in
  Buffer.add_uint16_le buf v

let add_varint buf x =
  let rec go x =
    if x < 0x80 then Buffer.add_char buf (Char.chr x)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (x land 0x7f)));
      go (x lsr 7)
    end
  in
  if x < 0 then invalid_arg "Node_record: negative varint";
  go x

let add_node_id buf id =
  add_varint buf id.Node_id.pid;
  add_varint buf id.Node_id.slot

let encode record =
  let buf = Buffer.create 32 in
  (match record with
  | Core c ->
    Buffer.add_char buf '\000';
    add_slot buf c.parent;
    add_slot buf c.first_child;
    add_slot buf c.last_child;
    add_slot buf c.next_sibling;
    add_slot buf c.prev_sibling;
    add_varint buf (Xnav_xml.Tag.id c.tag);
    Xnav_xml.Ordpath.encode buf c.ordpath
  | Down d ->
    Buffer.add_char buf '\001';
    add_slot buf d.parent;
    add_slot buf d.next_sibling;
    add_slot buf d.prev_sibling;
    add_node_id buf d.target
  | Up u ->
    Buffer.add_char buf (if u.continues then '\003' else '\002');
    add_slot buf u.first_child;
    add_slot buf u.last_child;
    add_node_id buf u.target;
    add_node_id buf u.owner);
  Buffer.contents buf

let read_u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let read_slot s off =
  let v = read_u16 s off in
  if v = none_slot then None else Some v

let read_varint s off =
  let rec go off shift acc =
    let byte = Char.code s.[off] in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then (acc, off + 1) else go (off + 1) (shift + 7) acc
  in
  go off 0 0

let read_node_id s off =
  let pid, off = read_varint s off in
  let slot, off = read_varint s off in
  (Node_id.make ~pid ~slot, off)

let decode s =
  match s.[0] with
  | '\000' ->
    let parent = read_slot s 1 in
    let first_child = read_slot s 3 in
    let last_child = read_slot s 5 in
    let next_sibling = read_slot s 7 in
    let prev_sibling = read_slot s 9 in
    let tag_id, off = read_varint s 11 in
    let ordpath, _ = Xnav_xml.Ordpath.decode s off in
    Core
      {
        tag = Xnav_xml.Tag.of_id tag_id;
        ordpath;
        parent;
        first_child;
        last_child;
        next_sibling;
        prev_sibling;
      }
  | '\001' ->
    let parent = read_slot s 1 in
    let next_sibling = read_slot s 3 in
    let prev_sibling = read_slot s 5 in
    let target, _ = read_node_id s 7 in
    Down { parent; next_sibling; prev_sibling; target }
  | ('\002' | '\003') as kind ->
    let first_child = read_slot s 1 in
    let last_child = read_slot s 3 in
    let target, off = read_node_id s 5 in
    let owner, _ = read_node_id s off in
    Up { first_child; last_child; target; owner; continues = kind = '\003' }
  | c -> invalid_arg (Printf.sprintf "Node_record.decode: unknown kind %d" (Char.code c))

(* --- Packed navigation words -------------------------------------------

   Chain walking (the fused automaton) needs only four things from a
   record: its kind, its tag, and its first-child / next-sibling links.
   A full [decode] materialises ~90 heap words per record (the page-copy
   string, five slot options, the ordpath) — by far the dominant CPU
   cost of a scan. [nav_of_bytes] instead parses exactly those fields in
   place, from the page buffer at {!Xnav_storage.Page.record_offset},
   into one unboxed int:

   {v
   bits 0..1    kind (1 = Core, 2 = Down, 3 = Up; 0 is never produced,
                so it can serve as a cache sentinel)
   bits 2..16   link1 + 1   (Core/Up first child; Down next sibling;
                             0 = none)
   bits 17..31  link2 + 1   (Core next sibling; Down target slot)
   bits 32..62  high        (Core tag id; Down target pid)
   v}

   The 15-bit link fields are safe: a slot directory entry costs 4 bytes
   and pages are capped at 65535 bytes, so slot numbers stay below
   2^14. Tag ids and page ids are interned/allocated sequentially and
   fit 31 bits. *)

let nav_core = 1
let nav_down = 2
let nav_up = 3
let nav_kind word = word land 3
let nav_link1 word = ((word lsr 2) land 0x7fff) - 1
let nav_link2 word = ((word lsr 17) land 0x7fff) - 1
let nav_high word = word lsr 32

let slot_field v = if v = none_slot then 0 else v + 1

(* Varints (unsigned LEB128, as [add_varint] writes them) read in place
   without allocating; one-byte varints — nearly every tag id, page and
   slot — skip the loop. *)
let varint_end = Xnav_xml.Ordpath.varint_end

let varint_at b off =
  let c = Char.code (Bytes.get b off) in
  if c < 0x80 then c else Xnav_xml.Ordpath.varint_value b off

let nav_of_bytes b off =
  match Bytes.get b off with
  | '\000' ->
    let first_child = Bytes.get_uint16_le b (off + 3) in
    let next_sibling = Bytes.get_uint16_le b (off + 7) in
    let tag_id = varint_at b (off + 11) in
    nav_core lor (slot_field first_child lsl 2) lor (slot_field next_sibling lsl 17)
    lor (tag_id lsl 32)
  | '\001' ->
    let next_sibling = Bytes.get_uint16_le b (off + 3) in
    let pid = varint_at b (off + 7) in
    let slot = varint_at b (varint_end b (off + 7)) in
    nav_down lor (slot_field next_sibling lsl 2) lor ((slot + 1) lsl 17) lor (pid lsl 32)
  | '\002' | '\003' ->
    let first_child = Bytes.get_uint16_le b (off + 1) in
    nav_up lor (slot_field first_child lsl 2)
  | c -> invalid_arg (Printf.sprintf "Node_record.nav_of_bytes: unknown kind %d" (Char.code c))

(* --- In-place field access ------------------------------------------------

   Global navigation reads a record's links straight from the page
   buffer into a reusable [fields] block. The offsets mirror [encode]:
   Core = kind, five slots, tag varint, ordpath; Down = kind, three
   slots, target NodeID; Up = kind, two slots, target NodeID, owner
   NodeID. Tag ids and link varints are almost always one byte, so
   that case is read without a loop. *)

type fields = {
  mutable kind : int;
  mutable parent : int;
  mutable first_child : int;
  mutable last_child : int;
  mutable next_sibling : int;
  mutable prev_sibling : int;
  mutable tag_id : int;
  mutable target_pid : int;
  mutable target_slot : int;
  mutable owner_pid : int;
  mutable owner_slot : int;
  mutable continues : bool;
}

let slot_at b off =
  let v = Bytes.get_uint16_le b off in
  if v = none_slot then -1 else v

let fields () =
  {
    kind = 0;
    parent = -1;
    first_child = -1;
    last_child = -1;
    next_sibling = -1;
    prev_sibling = -1;
    tag_id = -1;
    target_pid = -1;
    target_slot = -1;
    owner_pid = -1;
    owner_slot = -1;
    continues = false;
  }

let read_fields f b off =
  match Bytes.get b off with
  | '\000' ->
    f.kind <- nav_core;
    f.parent <- slot_at b (off + 1);
    f.first_child <- slot_at b (off + 3);
    f.last_child <- slot_at b (off + 5);
    f.next_sibling <- slot_at b (off + 7);
    f.prev_sibling <- slot_at b (off + 9);
    f.tag_id <- varint_at b (off + 11)
  | '\001' ->
    f.kind <- nav_down;
    f.parent <- slot_at b (off + 1);
    f.next_sibling <- slot_at b (off + 3);
    f.prev_sibling <- slot_at b (off + 5);
    f.target_pid <- varint_at b (off + 7);
    f.target_slot <- varint_at b (varint_end b (off + 7))
  | ('\002' | '\003') as k ->
    f.kind <- nav_up;
    f.first_child <- slot_at b (off + 1);
    f.last_child <- slot_at b (off + 3);
    f.target_pid <- varint_at b (off + 5);
    let off = varint_end b (off + 5) in
    f.target_slot <- varint_at b off;
    let off = varint_end b off in
    f.owner_pid <- varint_at b off;
    f.owner_slot <- varint_at b (varint_end b off);
    f.continues <- k = '\003'
  | c -> invalid_arg (Printf.sprintf "Node_record.read_fields: unknown kind %d" (Char.code c))

let ordpath_at b off = Xnav_xml.Ordpath.decode_bytes b (varint_end b (off + 11))

let encoded_size record = String.length (encode record)

(* Worst case chargeable to one node: it anchors a run (Up: 1 + 4 + two
   NodeIDs of <= 10 bytes = 25), ends a run (Down: 1 + 6 + 10 = 17), and
   starts a remote child chain (another Down: 17), plus 4 slot-directory
   entries of 4 bytes. *)
let max_overhead = 26 + 17 + 17 + (4 * Xnav_storage.Page.slot_entry_size)

let pp ppf = function
  | Core c ->
    Format.fprintf ppf "core(%a @@%a)" Xnav_xml.Tag.pp c.tag Xnav_xml.Ordpath.pp c.ordpath
  | Down d -> Format.fprintf ppf "down(->%a)" Node_id.pp d.target
  | Up u -> Format.fprintf ppf "up(->%a owner=%a)" Node_id.pp u.target Node_id.pp u.owner

let equal a b = String.equal (encode a) (encode b)

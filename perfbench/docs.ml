(* Documents, stores, the statement vocabulary and the answer oracle.

   The vocabulary follows the path summary (Arion et al.): every
   root-to-node label path of the document, plus a [/site//t] form per
   tag and a [/site//p/t] form per parent/child tag pair below the root.

   The oracle answers every vocabulary statement in one preorder pass
   over an in-memory tree: a label path selects the nodes whose tag
   sequence it spells, [/site//t] every non-root [t], [/site//p/t]
   every [t] whose parent is a non-root [p]. Answers are a count plus
   a digest of the ORDPATHs in document order; each run
   cross-checks a sample of statements against [Eval_ref]. *)

module Tree = Xnav_xml.Tree
module Tag = Xnav_xml.Tag
module Disk = Xnav_storage.Disk
module Buffer_manager = Xnav_storage.Buffer_manager
module Import = Xnav_store.Import
module Store = Xnav_store.Store
module Path_partition = Xnav_store.Path_partition
module Path = Xnav_xpath.Path
module Xpath_parser = Xnav_xpath.Xpath_parser
module Eval_ref = Xnav_xpath.Eval_ref
module Gen = Xnav_xmark.Gen

let generate ~fidelity ~seed =
  Span.run "gen" (fun () -> Gen.generate ~config:{ Gen.scale = 1.0; fidelity; seed } ())

let import doc =
  let disk = Disk.create () in
  let imp = Span.run "import" (fun () -> Import.run disk doc) in
  (disk, imp)

let attach ~capacity disk imp =
  Span.run "attach" (fun () -> Store.attach (Buffer_manager.create ~capacity disk) imp)

(* Statements are absolute paths evaluated from the root element. *)
let path_of text = Path.from_root_element (Xpath_parser.parse text)

(* [path_of] as a request's front end does it, in a "parse" span. *)
let parse ?req text = Span.run ?req "parse" (fun () -> path_of text)

(* ORDPATH components by preorder rank, computed here from the tree
   shape (root [1]; the k-th child appends [2k+1]). The read-write
   replay appends the labels of inserted nodes. *)
type labels = { mutable ords : int array array; mutable size : int }

let labels_of doc =
  let n = Tree.index doc in
  let ords = Array.make n [||] in
  let rec walk (t : Tree.t) label =
    ords.(t.Tree.preorder) <- label;
    Array.iteri (fun k c -> walk c (Array.append label [| (2 * k) + 1 |])) t.Tree.children
  in
  walk doc [| 1 |];
  { ords; size = n }

let add_label l ord =
  if l.size = Array.length l.ords then
    l.ords <- Array.append l.ords (Array.make (max 16 l.size) [||]);
  l.ords.(l.size) <- ord;
  l.size <- l.size + 1;
  l.size - 1

let node_digest l h (t : Tree.t) = Util.mix_node h l.ords.(t.Tree.preorder)

let vocabulary part =
  let root = Tag.to_string (Path_partition.class_sequence part 0).(0) in
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out := s :: !out
    end
  in
  for c = 0 to Path_partition.class_count part - 1 do
    let seq = Array.map Tag.to_string (Path_partition.class_sequence part c) in
    add ("/" ^ String.concat "/" (Array.to_list seq));
    let n = Array.length seq in
    if n >= 2 then add (Printf.sprintf "/%s//%s" root seq.(n - 1));
    if n >= 3 then add (Printf.sprintf "/%s//%s/%s" root seq.(n - 2) seq.(n - 1))
  done;
  Array.of_list (List.rev !out)

(* Zipf(s) popularity. A statement's rank is fixed by a hash of its
   text, [1 + u n] with [u] in [0, 1), not by its place in this
   document's vocabulary: a statement keeps its popularity across seeds
   even where the documents' path summaries differ. *)
let zipf_weights ~s vocab =
  let n = float_of_int (Array.length vocab) in
  Array.map
    (fun text ->
      let u = float_of_int (Util.text_hash text) /. float_of_int max_int in
      1.0 /. ((1.0 +. (u *. n)) ** s))
    vocab

type answer = { count : int; digest : int }

let empty_answer = { count = 0; digest = Util.fnv_init }

(* One preorder pass answering every vocabulary-shaped statement. *)
let oracle l (doc : Tree.t) =
  let tbl : (string, answer) Hashtbl.t = Hashtbl.create 4096 in
  let add key t =
    let a = Option.value ~default:empty_answer (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key { count = a.count + 1; digest = node_digest l a.digest t }
  in
  let root = Tag.to_string doc.Tree.tag in
  let rec walk (t : Tree.t) ~key ~parent =
    let tag = Tag.to_string t.Tree.tag in
    let key = key ^ "/" ^ tag in
    add key t;
    (match parent with
    | None -> ()
    | Some p ->
      add (Printf.sprintf "/%s//%s" root tag) t;
      if p != doc then add (Printf.sprintf "/%s//%s/%s" root (Tag.to_string p.Tree.tag) tag) t);
    Array.iter (fun c -> walk c ~key ~parent:(Some t)) t.Tree.children
  in
  walk doc ~key:"" ~parent:None;
  fun statement -> Option.value ~default:empty_answer (Hashtbl.find_opt tbl statement)

let eval_ref l doc path =
  let nodes = Eval_ref.eval doc path in
  { count = List.length nodes; digest = List.fold_left (node_digest l) Util.fnv_init nodes }

let answer_of_infos nodes =
  { count = List.length nodes; digest = Util.digest_infos nodes }

(* Compare the oracle against [Eval_ref] on [k] statements drawn from
   the vocabulary; returns the statements that disagree. *)
let cross_check ~rng ~k l doc vocab answer =
  let n = Array.length vocab in
  List.filter_map
    (fun _ ->
      let s = vocab.(Util.Rng.int rng n) in
      if eval_ref l doc (path_of s) = answer s then None
      else Some s)
    (List.init k Fun.id)

(* A deep copy, for the read-write replay: its nodes get fresh label
   slots so inserts can extend the label table. *)
let rec copy_tree (t : Tree.t) =
  let c = Tree.make t.Tree.tag (Array.to_list (Array.map copy_tree t.Tree.children)) in
  c.Tree.preorder <- t.Tree.preorder;
  c

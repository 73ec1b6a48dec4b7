(* Spans around the benchmark's own calls into each layer. Off by
   default, where [run] is a plain call. When on, every span records
   name, start, end, parent and request id in memory; [write_chrome]
   dumps them as Chrome trace-event JSON at the end of the run. *)

type t = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start : float;
  mutable stop : float;
}

let on = ref false
let spans : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let run ?(req = -1) name f =
  if not !on then f ()
  else begin
    incr next_id;
    let parent, inherited = match !stack with p :: _ -> (p.id, p.req) | [] -> (0, -1) in
    let req = if req >= 0 then req else inherited in
    let s = { id = !next_id; name; parent; req; start = Util.now (); stop = 0.0 } in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- Util.now ();
        stack := List.tl !stack;
        spans := s :: !spans)
      f
  end

(* Per span name: (count, total self seconds), where a span's self time
   is its duration minus its direct children's durations. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let before = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (d +. before))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, t +. self))
    !spans;
  by_name

let self_of tbl name = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl name)

let write_chrome file =
  let oc = open_out file in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity !spans in
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.req)
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* Small helpers shared by the workloads: the host clock, a seeded
   generator the benchmark owns (so its inputs do not move when the
   library's own generator changes), answer digests and order
   statistics. *)

let now = Unix.gettimeofday

(* splitmix64 with its constants truncated to OCaml's 63-bit ints. *)
module Rng = struct
  type t = { mutable s : int }

  let golden = 0x1E3779B97F4A7C15

  let create seed = { s = (seed * golden) + 0x232BE59BD9B4E019 }

  let bits t =
    t.s <- t.s + golden;
    let z = t.s in
    let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
    let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
    (z lxor (z lsr 31)) land max_int

  let int t n = bits t mod n
  let float t = float_of_int (bits t lsr 10) /. float_of_int (max_int lsr 10)

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
end

(* [count] indices into [weights], drawn by systematic sampling (the
   quantiles [(i + offset) / count] of the cumulative weights, offset in
   [0, 1)) and shuffled: every index appears its expected number of
   times, rounded, so the mix is steady across seeds while the order
   changes. *)
let weighted_draws ~weights ~count ~offset rng =
  let n = Array.length weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun r w ->
      acc := !acc +. w;
      cdf.(r) <- !acc)
    weights;
  let total = !acc in
  let draws =
    Array.init count (fun i ->
        let u = (float_of_int i +. offset) /. float_of_int count *. total in
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) < u then lo := mid + 1 else hi := mid
        done;
        !lo)
  in
  Rng.shuffle rng draws;
  draws

(* FNV-1a over ints: order-sensitive digest of an answer. *)
let fnv_prime = 0x100000001b3
let fnv_init = 0x0bf29ce484222325
let mix h x = ((h lxor x) * fnv_prime) land max_int

let mix_node h (label : int array) = mix (Array.fold_left mix h label) (-1)

let digest_infos (nodes : Xnav_store.Store.info list) =
  List.fold_left
    (fun h (i : Xnav_store.Store.info) -> mix_node h (Xnav_xml.Ordpath.components i.ordpath))
    fnv_init nodes

let text_hash s =
  let h = ref fnv_init in
  String.iter (fun c -> h := mix !h (Char.code c)) s;
  !h

(* Nearest-rank percentile, p in [0, 100]. *)
let percentile (xs : float array) p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(min (n - 1) (max 0 (rank - 1)))
  end

let median xs = percentile (Array.of_list xs) 50.0

(* The highest percentile of a fixed ladder that leaves at least ten
   samples above it. *)
let tail_pct n =
  let ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 80.0; 75.0; 60.0; 50.0 ] in
  match List.find_opt (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0) ladder with
  | Some p -> p
  | None -> 50.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

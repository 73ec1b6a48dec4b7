(* Single source of truth for the bench JSON schema tag. Before this
   constant existed the "xnav-bench/N" string was copy-pasted into every
   emitter and assertion and had to be bumped in lockstep; now the bench
   emitters, the --compare parser's expectations and the test that pins
   the committed baseline all read it from here. *)

let version = "xnav-bench/10"

let metric_fields m =
  List.map
    (fun (e : Metric.entry) ->
      ( e.name,
        match e.field with
        | Metric.Int (get, _) -> string_of_int (get m)
        | Metric.Float (get, _) ->
          let v = get m in
          if not (Float.is_finite v) then invalid_arg ("Bench_schema: non-finite " ^ e.name);
          Printf.sprintf "%.6f" v
        | Metric.Bool (get, _) -> string_of_bool (get m) ))
    Metric.all

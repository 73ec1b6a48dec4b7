type serve_policy = Serve_min_pid | Serve_cost

let serve_policy_of_string = function
  | "min-pid" -> Some Serve_min_pid
  | "cost" -> Some Serve_cost
  | _ -> None

let serve_policy_to_string = function Serve_min_pid -> "min-pid" | Serve_cost -> "cost"

type config = {
  k : int;
  speculative : bool;
  memory_budget : int;
  dedup_intermediate : bool;
  validate : bool;
  coalesce_window : int;
  serve_policy : serve_policy;
  scan_threshold : float;
  fused : bool;
  result_cache : bool;
  scan_resistant : bool;
}

let default_config =
  {
    k = 100;
    speculative = true;
    memory_budget = 1_000_000;
    dedup_intermediate = true;
    validate = false;
    coalesce_window = 16;
    serve_policy = Serve_cost;
    scan_threshold = 0.5;
    fused = true;
    result_cache = false;
    scan_resistant = false;
  }

let set_fused fused config = { config with fused }
let set_result_cache result_cache config = { config with result_cache }
let set_scan_resistant scan_resistant config = { config with scan_resistant }

type mode = Normal | Fallback

include Metric.Record

type t = {
  store : Xnav_store.Store.t;
  config : config;
  mutable mode : mode;
  counters : metrics;
  mutable trace : (string -> unit) option;
}

let create ?(config = default_config) store =
  { store; config; mode = Normal; trace = None; counters = Metric.create () }

let enter_fallback t =
  match t.mode with
  | Fallback -> ()
  | Normal ->
    t.mode <- Fallback;
    t.counters.fallbacks <- t.counters.fallbacks + 1;
    t.counters.fell_back <- true

let fallback t = t.mode = Fallback

let tracing t = match t.trace with None -> false | Some _ -> true
let emit t msg = match t.trace with None -> () | Some f -> f (msg ())

(* The search-counter gate behind `dune build @perf-gate`.

   Re-runs every `default` record of BENCH_egraph.json and requires the
   verdict and the saturation counters to equal the committed ones, so a
   change that claims "counters unchanged" is held to it. The file is
   the only list of instances: a zoo record matches the zoo entry of the
   same instance name, and "gpt-d<D>l<L>" rebuilds that cell of the
   Figure-4 sweep. Checks run with the default configuration, as
   `bench/main.exe ablation` runs them. Wall time and allocation are
   not checked.

   Usage: perf_gate.exe BENCH_egraph.json
   Prints every mismatch and exits 1 on any. *)

open Entangle_models
module Json = Entangle_trace.Json

let fail fmt =
  Fmt.kstr
    (fun s ->
      Fmt.epr "perf-gate: %s@." s;
      exit 1)
    fmt

let instance_of zoo model =
  match Scanf.sscanf_opt model "gpt-d%ul%u%!" (fun d l -> (d, l)) with
  | Some (degree, layers) -> Some (Gpt.build ~layers ~degree ~heads:8 ())
  | None -> List.find_opt (fun i -> i.Instance.name = model) zoo

let counters result =
  let verdict, (s : Entangle.Refine.stats) =
    match result with
    | Ok (ok : Entangle.Refine.success) -> ("refines", ok.stats)
    | Error (f : Entangle.Refine.failure) -> ("FAILED", f.stats)
  in
  let int n = Json.Num (float_of_int n) in
  [
    ("verdict", Json.Str verdict);
    ("iterations", int s.saturation_iterations);
    ("matches", int s.matches_examined);
    ("unions", int s.unions_applied);
    ("nodes_peak", int s.egraph_nodes_peak);
    ("classes_peak", int s.egraph_classes_peak);
  ]

let show = function
  | Some (Json.Str s) -> s
  | Some (Json.Num n) -> Printf.sprintf "%.0f" n
  | Some _ -> "a non-counter"
  | None -> "missing"

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ -> fail "usage: perf_gate.exe BENCH_egraph.json"
  in
  let runs =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Error e -> fail "%s: %s" path e
    | Ok doc -> (
        match Json.member "runs" doc with
        | Some (Json.Arr runs) -> runs
        | _ -> fail "%s: no runs array" path)
  in
  let records =
    List.filter
      (fun r -> Json.member "config" r = Some (Json.Str "default"))
      runs
  in
  if records = [] then fail "%s: no default records" path;
  let zoo = List.filter_map Zoo.by_name Zoo.names in
  let mismatches = ref 0 in
  let mismatch fmt =
    incr mismatches;
    Fmt.pr fmt
  in
  List.iter
    (fun record ->
      let model = show (Json.member "model" record) in
      match instance_of zoo model with
      | None -> mismatch "%s: no such instance@." model
      | Some inst ->
          List.iter
            (fun (field, now) ->
              let pinned = Json.member field record in
              if pinned <> Some now then
                mismatch "%s: %s is %s, pinned %s@." model field
                  (show (Some now)) (show pinned))
            (counters (Instance.check inst)))
    records;
  if !mismatches > 0 then
    fail "%d mismatches over %d default records of %s" !mismatches
      (List.length records) path;
  Fmt.pr "perf-gate: counters of %d default records match %s@."
    (List.length records) path

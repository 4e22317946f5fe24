(* The search-counter gate: `dune runtest` runs it with every other
   suite, and `dune build @perf-gate` runs it alone.

   Re-runs every `default` record of BENCH_egraph.json and requires the
   verdict and the saturation counters to equal the committed ones, so a
   change that claims "counters unchanged" is held to it, and the words
   the check allocates to stay within 5% above the record's
   [alloc_words]. The file is the only list of instances: a zoo record
   matches the zoo entry of the same instance name, and "gpt-d<D>l<L>"
   rebuilds that cell of the Figure-4 sweep. Checks run with the default
   configuration, as `bench/main.exe ablation` runs them, and count
   allocation with the same code (bench/bench_counts.ml). It also
   re-derives the file's [cert_sha256_bytes], the SHA-256 work of the
   ablation's certificate row, which may be at most 5% above its pin,
   and its [replay_words], the words certificate replay of gpt-d8l4
   allocates, under the same band. Wall time is not checked. *)

open Entangle_models
module Json = Entangle_trace.Json

let bench_file = "../BENCH_egraph.json"

let instance_of zoo model =
  match Scanf.sscanf_opt model "gpt-d%ul%u%!" (fun d l -> (d, l)) with
  | Some (degree, layers) -> Some (Gpt.build ~layers ~degree ~heads:8 ())
  | None -> List.find_opt (fun i -> i.Instance.name = model) zoo

(* Allocation and hashing may each exceed their pin by this fraction. *)
let alloc_band = 0.05

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

let document () =
  let text = In_channel.with_open_bin bench_file In_channel.input_all in
  match Json.parse text with
  | Error e -> Alcotest.failf "%s: %s" bench_file e
  | Ok doc -> doc

let default_records () =
  match Json.member "runs" (document ()) with
  | Some (Json.Arr runs) ->
      List.filter
        (fun r -> Json.member "config" r = Some (Json.Str "default"))
        runs
  | _ -> Alcotest.failf "%s: no runs array" bench_file

(* The bytes SHA-256 digests while the ablation's certificate row
   exports the gpt bundle (builds it and writes its text) and verifies
   that text, counted as `bench/main.exe ablation` counts them: a
   bundle hashed more than once on this path shows here. *)
let cert_sha256_bytes () =
  let module CE = Entangle_certexport in
  let module Sha256 = Entangle_fingerprint.Sha256 in
  let inst = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
  match Instance.check ~config:Entangle.Config.default inst with
  | Error _ -> Alcotest.fail "gpt does not refine"
  | Ok success -> (
      let hashed0 = Sha256.bytes_hashed () in
      match
        Entangle.Cert_export.bundle ~producer:"entangle-bench" ~env:inst.env
          ~input_relation:inst.input_relation success
      with
      | Error e -> Alcotest.failf "certificate export failed: %s" e
      | Ok bundle -> (
          match CE.Verify.check_string (CE.Bundle.to_string bundle) with
          | Error e -> Alcotest.failf "%a" CE.Cert_error.pp e
          | Ok _ -> Sha256.bytes_hashed () - hashed0))

(* [measured] against the document's [field]: at most [alloc_band]
   above it. *)
let within_pin field measured =
  match Json.member field (document ()) with
  | Some (Json.Num pin) ->
      if float_of_int measured > pin *. (1. +. alloc_band) then
        Alcotest.failf "%s is %d, pinned %.0f (over %.0f%% above)" field
          measured pin (alloc_band *. 100.)
  | pinned -> Alcotest.failf "%s: %s pinned %s" bench_file field (show pinned)

(* One line per counter of [record] that a re-check does not give, and
   one if it allocates more than [alloc_band] above its pin. *)
let mismatches zoo record =
  let model = show (Json.member "model" record) in
  match instance_of zoo model with
  | None -> [ Fmt.str "%s: no such instance" model ]
  | Some inst ->
      let words, result = Bench_counts.check inst in
      let alloc =
        match Json.member "alloc_words" record with
        | Some (Json.Num pin) ->
            if float_of_int words <= pin *. (1. +. alloc_band) then []
            else
              [
                Fmt.str "%s: alloc_words is %d, pinned %.0f (over %.0f%% above)"
                  model words pin (alloc_band *. 100.);
              ]
        | pinned -> [ Fmt.str "%s: alloc_words pinned %s" model (show pinned) ]
      in
      List.filter_map
        (fun (field, now) ->
          let pinned = Json.member field record in
          if pinned = Some now then None
          else
            Some
              (Fmt.str "%s: %s is %s, pinned %s" model field (show (Some now))
                 (show pinned)))
        (counters result)
      @ alloc

let suite =
  [
    ( "perf_gate",
      [
        Alcotest.test_case "default records' counters match BENCH_egraph.json"
          `Slow (fun () ->
            let records = default_records () in
            if records = [] then
              Alcotest.failf "%s: no default records" bench_file;
            let zoo = List.filter_map Zoo.by_name Zoo.names in
            match List.concat_map (mismatches zoo) records with
            | [] -> ()
            | found ->
                Alcotest.failf
                  "%d mismatches over %d default records of %s:\n%s"
                  (List.length found) (List.length records) bench_file
                  (String.concat "\n" found));
        Alcotest.test_case "the certificate row hashes no more than its pin"
          `Quick (fun () ->
            within_pin "cert_sha256_bytes" (cert_sha256_bytes ()));
        Alcotest.test_case "certificate replay allocates no more than its pin"
          `Quick (fun () ->
            match Bench_counts.replay_words () with
            | Error e -> Alcotest.fail e
            | Ok words -> within_pin "replay_words" words);
      ] );
  ]

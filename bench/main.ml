(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (section 6):

     fig3     end-to-end verification time per model
     fig4     scalability in parallelism degree and layer count
     fig5     lemma-corpus statistics (operators, lemmas, LoC CDF)
     fig6     lemma-application heatmap
     table3   the nine bug case studies
     ablation the section 4.3 optimizations on/off
     extensions  strategies beyond the paper (DP, PP, autodiff backward)

   Run a single experiment with `dune exec bench/main.exe -- fig3`, or
   everything with no argument. Absolute numbers differ from the
   paper's CloudLab testbed; the shapes are what reproduce. The
   pass/fail gates are test suites (test/dune). *)

open Entangle_models

let hr () = Fmt.pr "%s@." (String.make 74 '-')

let section title =
  Fmt.pr "@.";
  hr ();
  Fmt.pr "%s@." title;
  hr ()

let time_check ?config inst =
  let t0 = Unix.gettimeofday () in
  let result = Instance.check ?config inst in
  (Unix.gettimeofday () -. t0, result)

let result_stats = function
  | Ok (s : Entangle.Refine.success) -> s.stats
  | Error (f : Entangle.Refine.failure) -> f.stats

(* Per-lemma application counts now come out of the checker's stats
   (they are a fold over the trace event stream) instead of the old
   [?hit_counter] hashtable side channel. *)
let rule_hits result = (result_stats result).Entangle.Refine.rule_hits

let hit_count hits name = Option.value (List.assoc_opt name hits) ~default:0

(* --- Figure 3 --------------------------------------------------------- *)

let fig3 () =
  section
    "Figure 3: end-to-end verification time (1 layer, parallelism 2)";
  Fmt.pr "%-28s %10s %12s %s@." "model" "operators" "time (s)" "verdict";
  List.iter
    (fun inst ->
      let secs, result = time_check inst in
      Fmt.pr "%-28s %10d %12.2f %s@." inst.Instance.name
        (Instance.operator_count inst)
        secs
        (match result with
        | Ok _ -> "refines"
        | Error f ->
            Fmt.str "FAILED at %a" Entangle_ir.Node.pp f.operator))
    (Zoo.fig3_instances ());
  Fmt.pr
    "@.(The regression model is the sub-second case of section 6.3; \
     ByteDance appears as separate forward and backward passes.)@."

(* --- Figure 4 --------------------------------------------------------- *)

let fig4_model name build degrees layers_list =
  Fmt.pr "@.%s:@." name;
  Fmt.pr "%12s" "layers\\par";
  List.iter (fun d -> Fmt.pr "%10d" d) degrees;
  Fmt.pr "@.";
  List.iter
    (fun layers ->
      Fmt.pr "%12d" layers;
      List.iter
        (fun degree ->
          match build ~layers ~degree with
          | exception Invalid_argument _ -> Fmt.pr "%10s" "n/a"
          | inst ->
              let secs, result = time_check inst in
              (match result with
              | Ok _ -> Fmt.pr "%9.2fs" secs
              | Error _ -> Fmt.pr "%10s" "FAIL"))
        degrees;
      Fmt.pr "@.")
    layers_list

let fig4 () =
  section "Figure 4: scalability in parallelism size and layers";
  fig4_model "GPT (TP+SP+VP)"
    (fun ~layers ~degree -> Gpt.build ~layers ~degree ~heads:8 ())
    [ 2; 4; 8 ] [ 1; 2; 4 ];
  fig4_model "Llama-3 (TP)"
    (fun ~layers ~degree -> Llama.build ~layers ~degree ~heads:8 ())
    [ 2; 4; 6; 8 ] [ 1; 2; 4 ];
  Fmt.pr
    "@.(Llama-3 has no data point at parallelism 6: 8 heads cannot be \
     evenly partitioned, as in the paper.)@."

(* --- Figure 5 --------------------------------------------------------- *)

let distinct_op_families inst =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun g ->
      List.iter
        (fun n -> Hashtbl.replace tbl (Entangle_ir.Op.name (Entangle_ir.Node.op n)) ())
        (Entangle_ir.Graph.nodes g))
    [ inst.Instance.gs; inst.Instance.gd ];
  Hashtbl.length tbl

let fig5 () =
  section "Figure 5a: operators, lemmas and lemma complexity per model";
  Fmt.pr "%-14s %10s %14s %16s@." "model" "op kinds" "lemmas used"
    "avg ops/lemma";
  let configs =
    [
      ("GPT", Gpt.build ~layers:1 ~degree:2 ());
      ("Qwen2", Qwen2.build ~layers:1 ~degree:2 ());
      ("Llama", Llama.build ~layers:1 ~degree:2 ());
      ("Bytedance", Moe.build ~degree:2 ());
    ]
  in
  List.iter
    (fun (name, inst) ->
      let _, result = time_check inst in
      let used =
        List.filter_map
          (fun (k, v) -> if v > 0 then Some k else None)
          (rule_hits result)
      in
      let complexities =
        List.filter_map
          (fun n ->
            Option.map
              (fun (l : Entangle_lemmas.Lemma.t) -> l.complexity)
              (Entangle_lemmas.Registry.find n))
          used
      in
      let avg =
        match complexities with
        | [] -> 0.
        | cs ->
            float_of_int (List.fold_left ( + ) 0 cs)
            /. float_of_int (List.length cs)
      in
      Fmt.pr "%-14s %10d %14d %16.1f@." name (distinct_op_families inst)
        (List.length used) avg)
    configs;
  section "Figure 5b: CDF of lines of code per lemma";
  let locs =
    List.map
      (fun (l : Entangle_lemmas.Lemma.t) -> l.loc)
      Entangle_lemmas.Registry.all
    |> List.sort compare
  in
  let n = List.length locs in
  Fmt.pr "%8s %8s@." "LoC <=" "CDF";
  List.iter
    (fun pct ->
      let idx = min (n - 1) (pct * n / 100) in
      Fmt.pr "%8d %7d%%@." (List.nth locs idx) pct)
    [ 10; 25; 50; 75; 90; 100 ];
  Fmt.pr "(%d lemmas; universal lemmas take ~2 lines, conditioned ones more)@."
    n

(* --- Figure 6 --------------------------------------------------------- *)

let fig6 () =
  section "Figure 6: lemma application counts (log2 buckets)";
  let corpus = Entangle_lemmas.Registry.all in
  let rows =
    [
      ("GPT(2)", fun () -> Gpt.build ~layers:1 ~degree:2 ~heads:8 ());
      ("GPT(4)", fun () -> Gpt.build ~layers:1 ~degree:4 ~heads:8 ());
      ("GPT(8)", fun () -> Gpt.build ~layers:1 ~degree:8 ~heads:8 ());
      ("Qwen2(4)", fun () -> Qwen2.build ~layers:1 ~degree:4 ());
      ("Llama-3(4)", fun () -> Llama.build ~layers:1 ~degree:4 ());
    ]
  in
  let results =
    List.map
      (fun (name, build) ->
        let _, result = time_check (build ()) in
        (name, rule_hits result))
      rows
  in
  (* Columns: lemmas that were applied at least once by some model. *)
  let applied =
    List.filteri
      (fun _ (l : Entangle_lemmas.Lemma.t) ->
        List.exists (fun (_, hits) -> hit_count hits l.name > 0) results)
      corpus
  in
  Fmt.pr "%-12s" "";
  List.iteri (fun i _ -> Fmt.pr "%3d" i) applied;
  Fmt.pr "@.";
  List.iter
    (fun (name, hits) ->
      Fmt.pr "%-12s" name;
      List.iter
        (fun (l : Entangle_lemmas.Lemma.t) ->
          let c = hit_count hits l.name in
          if c = 0 then Fmt.pr "  ."
          else
            let bucket =
              int_of_float (Float.log2 (float_of_int (c + 1)))
            in
            Fmt.pr "%3d" (min 9 bucket))
        applied;
      Fmt.pr "@.")
    results;
  Fmt.pr "%-12s" "class";
  List.iter
    (fun (l : Entangle_lemmas.Lemma.t) ->
      Fmt.pr "%3s" (Entangle_lemmas.Lemma.klass_letter l.klass))
    applied;
  Fmt.pr "@.@.Lemma ids:@.";
  List.iteri
    (fun i (l : Entangle_lemmas.Lemma.t) ->
      Fmt.pr "  %2d [%s] %s@." i
        (Entangle_lemmas.Lemma.klass_letter l.klass)
        l.name)
    applied

(* --- Table 3 ----------------------------------------------------------- *)

let table3 () =
  section "Table 3: bug case studies";
  Fmt.pr "%3s %-26s %-52s %s@." "id" "framework" "description" "result";
  List.iter
    (fun case ->
      let t0 = Unix.gettimeofday () in
      let outcome = Bugs.run case in
      let secs = Unix.gettimeofday () -. t0 in
      Fmt.pr "%3d %-26s %-52s %s (%.1fs)@." case.Bugs.id case.Bugs.framework
        case.Bugs.description
        (match outcome with
        | Bugs.Detected _ -> "detected"
        | Bugs.Missed -> "MISSED")
        secs)
    (Bugs.all ())

(* --- Ablation ---------------------------------------------------------- *)

let verdict_str = function Ok _ -> "refines" | Error _ -> "FAILED"

module J = Entangle_trace.Jsonw

(* A fixed-precision number, so the committed document stays readable. *)
let fixed digits x = J.Raw (Printf.sprintf "%.*f" digits x)

let json_record ?name ?alloc_words inst config_name secs result =
  let s = result_stats result in
  J.Obj
    ([
      ("model", J.Str (Option.value name ~default:inst.Instance.name));
      ("config", J.Str config_name);
      ("time_s", fixed 4 secs);
      ("verdict", J.Str (verdict_str result));
      ("operators", J.Int (Instance.operator_count inst));
      ("iterations", J.Int s.Entangle.Refine.saturation_iterations);
      ("matches", J.Int s.Entangle.Refine.matches_examined);
      ("unions", J.Int s.Entangle.Refine.unions_applied);
      ("nodes_peak", J.Int s.Entangle.Refine.egraph_nodes_peak);
      ("classes_peak", J.Int s.Entangle.Refine.egraph_classes_peak);
      ("retries", J.Int s.Entangle.Refine.retries);
      ("budget_trips", J.Int s.Entangle.Refine.budget_trips);
      ("cache_hits", J.Int s.Entangle.Refine.cache_hits);
      ("cache_misses", J.Int s.Entangle.Refine.cache_misses);
    ]
    @
    match alloc_words with
    | Some w -> [ ("alloc_words", J.Int w) ]
    | None -> [])

(* A default-configuration check, timed, with the words [Refine.check]
   allocates: the rule list is built before the count starts. A minor
   collection on each side makes the count exact; without them a native
   program's count drifts by up to ~10^5 words from one check to the
   next. The perf gate (test/test_perf_gate.ml) counts a re-check the
   same way. *)
let counted_check inst =
  let t0 = Unix.gettimeofday () in
  let rules = Entangle_lemmas.Registry.rules_for_model inst.Instance.family in
  Gc.minor ();
  let bytes0 = Gc.allocated_bytes () in
  let result =
    Entangle.Refine.check ~rules ~gs:inst.Instance.gs ~gd:inst.Instance.gd
      ~input_relation:inst.Instance.input_relation ()
  in
  let secs = Unix.gettimeofday () -. t0 in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. bytes0 in
  (secs, int_of_float (bytes /. float_of_int (Sys.word_size / 8)), result)

let bench_egraph_json = "BENCH_egraph.json"
let bench_trace_json = "BENCH_trace.json"

(* A Chrome trace of one default-config GPT verification, emitted
   alongside the numeric summary so regressions can be inspected
   visually in Perfetto. *)
let emit_reference_trace () =
  let module Trace = Entangle_trace in
  let oc = open_out bench_trace_json in
  let ch = Trace.Chrome.create oc in
  let config =
    Entangle.Config.default |> Entangle.Config.with_trace (Trace.Chrome.sink ch)
  in
  let _ = Instance.check ~config (Gpt.build ~layers:1 ~degree:2 ~heads:4 ()) in
  Trace.Chrome.close ch;
  close_out oc;
  Fmt.pr "wrote %s (%d events)@." bench_trace_json (Trace.Chrome.event_count ch)

(* A throwaway on-disk store for the cache rows: cold and warm numbers
   must not depend on (or pollute) the user's real ~/.cache/entangle. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_temp_cache f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-bench-cache.%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      match Entangle_cache.Cache.create ~dir () with
      | Error e ->
          Fmt.epr "cannot open temp cache at %s: %s@." dir e;
          exit 1
      | Ok cache -> f cache)

let ablation () =
  section "Ablation: the optimizations of section 4.3";
  let build () = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
  Fmt.pr "%-22s %10s %16s %10s %s@." "configuration" "time (s)"
    "peak e-graph" "matches" "verdict";
  List.iter
    (fun (name, config) ->
      let inst = build () in
      let secs, result = time_check ~config inst in
      let s = result_stats result in
      Fmt.pr "%-22s %10.2f %16d %10d %s@." name secs
        s.Entangle.Refine.egraph_nodes_peak
        s.Entangle.Refine.matches_examined (verdict_str result))
    [
      ("default", Entangle.Config.default);
      ("no frontier (4.3.1)", Entangle.Config.no_frontier);
    ];
  let json_records = ref [] in
  let push r = json_records := r :: !json_records in

  (* The saturation counters of the default schedule on every zoo
     instance and every GPT cell of the Figure-4 sweep. *)
  section "Saturation counters: the zoo and the Figure-4 GPT sweep";
  Fmt.pr "%-50s %8s %10s %8s %8s %s@." "instance" "time (s)" "iterations"
    "matches" "unions" "verdict";
  let counters ?name inst =
    let secs, alloc_words, result = counted_check inst in
    push (json_record ?name ~alloc_words inst "default" secs result);
    let s = result_stats result in
    Fmt.pr "%-50s %8.2f %10d %8d %8d %s@."
      (Option.value name ~default:inst.Instance.name)
      secs s.Entangle.Refine.saturation_iterations
      s.Entangle.Refine.matches_examined s.Entangle.Refine.unions_applied
      (verdict_str result)
  in
  List.iter
    (fun name -> Option.iter counters (Zoo.by_name name))
    Zoo.names;
  List.iter
    (fun (layers, degree) ->
      counters
        ~name:(Fmt.str "gpt-d%dl%d" degree layers)
        (Gpt.build ~layers ~degree ~heads:8 ()))
    (List.concat_map
       (fun layers -> List.map (fun degree -> (layers, degree)) [ 2; 4; 8 ])
       [ 1; 2; 4 ]);

  section "Resilience ablation: escalation cost under starved budgets";
  Fmt.pr "%-18s %10s %8s %13s %s@." "configuration" "time (s)" "retries"
    "budget trips" "verdict";
  List.iter
    (fun (config_name, config) ->
      let inst = Regression.build ~microbatches:2 () in
      let secs, result = time_check ~config inst in
      let s = result_stats result in
      push (json_record inst config_name secs result);
      Fmt.pr "%-18s %10.2f %8d %13d %s@." config_name secs
        s.Entangle.Refine.retries s.Entangle.Refine.budget_trips
        (verdict_str result))
    (let starved =
       {
         Entangle_egraph.Runner.default_limits with
         Entangle_egraph.Runner.max_nodes = 8;
       }
     in
     [
       ("starved_no_retry",
        Entangle.Config.default
        |> Entangle.Config.with_limits starved
        |> Entangle.Config.with_escalation []);
       ("starved_escalated",
        Entangle.Config.default |> Entangle.Config.with_limits starved);
     ]);

  section "Cache ablation: cold vs warm certificate store";
  Fmt.pr "%-14s %10s %12s %8s %8s %s@." "run" "time (s)" "iterations"
    "hits" "misses" "verdict";
  with_temp_cache (fun cache ->
      let config =
        Entangle.Config.default |> Entangle.Config.with_cache (Some cache)
      in
      let run config_name =
        let inst = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
        let secs, result = time_check ~config inst in
        push (json_record inst config_name secs result);
        let s = result_stats result in
        Fmt.pr "%-14s %10.2f %12d %8d %8d %s@." config_name secs
          s.Entangle.Refine.saturation_iterations s.Entangle.Refine.cache_hits
          s.Entangle.Refine.cache_misses (verdict_str result);
        result
      in
      let cold = run "cache_cold" in
      let warm = run "cache_warm" in
      let ws = result_stats warm in
      Fmt.pr
        "@.warm re-check: %d/%d operators from cache, %d saturation \
         iterations (target 0), verdicts %s@."
        ws.Entangle.Refine.cache_hits ws.Entangle.Refine.operators_processed
        ws.Entangle.Refine.saturation_iterations
        (if verdict_str cold = verdict_str warm then "agree" else "DISAGREE"));

  section "Certificate exchange: portable bundle vs re-check";
  (* How much cheaper is accepting a bundle with the minimal verifier
     than re-running the full saturation check it certifies? And how
     many bytes do export and verification hash between them (the perf
     gate pins this count)? *)
  let cert_recheck_s, cert_export_s, cert_verify_s, cert_bytes, cert_hashed =
    let inst = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
    let recheck_s, result = time_check ~config:Entangle.Config.default inst in
    match result with
    | Error _ ->
        Fmt.pr "gpt did not refine; certificate row skipped@.";
        (recheck_s, 0., 0., 0, 0)
    | Ok success -> (
        let hashed0 = Entangle_fingerprint.Sha256.bytes_hashed () in
        let t0 = Unix.gettimeofday () in
        match
          Entangle.Cert_export.bundle ~producer:"entangle-bench"
            ~gs:inst.Instance.gs ~gd:inst.Instance.gd ~env:inst.Instance.env
            ~input_relation:inst.Instance.input_relation success
        with
        | Error e ->
            Fmt.epr "certificate export failed: %s@." e;
            exit 1
        | Ok bundle -> (
            let text = Entangle_certexport.Bundle.to_string bundle in
            let export_s = Unix.gettimeofday () -. t0 in
            let t1 = Unix.gettimeofday () in
            match Entangle_certexport.Verify.check_string text with
            | Error e ->
                Fmt.epr "exported bundle failed verification: %a@."
                  Entangle_certexport.Cert_error.pp e;
                exit 1
            | Ok _ ->
                let verify_s = Unix.gettimeofday () -. t1 in
                let hashed =
                  Entangle_fingerprint.Sha256.bytes_hashed () - hashed0
                in
                (recheck_s, export_s, verify_s, String.length text, hashed)))
  in
  let cert_speedup = cert_recheck_s /. Float.max 1e-9 cert_verify_s in
  Fmt.pr "%-22s %10s %12s %10s@." "step" "time (s)" "bundle (B)" "speedup";
  Fmt.pr "%-22s %10.3f %12s %10s@." "full re-check" cert_recheck_s "-" "-";
  Fmt.pr "%-22s %10.3f %12d %10s@." "cert_export" cert_export_s cert_bytes "-";
  Fmt.pr "%-22s %10.3f %12d %9.0fx@." "cert_verify" cert_verify_s cert_bytes
    cert_speedup;
  Fmt.pr "SHA-256 over export and verification: %d bytes@." cert_hashed;

  let records = List.rev !json_records in
  let oc = open_out bench_egraph_json in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("schema", J.Str "entangle-bench-egraph/7");
            ("cert_recheck_s", fixed 6 cert_recheck_s);
            ("cert_export_s", fixed 6 cert_export_s);
            ("cert_verify_s", fixed 6 cert_verify_s);
            ("cert_bundle_bytes", J.Int cert_bytes);
            ("cert_verify_speedup", fixed 2 cert_speedup);
            ("cert_sha256_bytes", J.Int cert_hashed);
            ("runs", J.Arr records);
          ]));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s (%d runs)@." bench_egraph_json (List.length records);
  emit_reference_trace ()

(* --- Extensions beyond the paper's evaluation --------------------------- *)

let extensions () =
  section
    "Extensions: strategies the paper could not capture (section 6.1)";
  Fmt.pr "%-46s %10s %12s %s@." "instance" "operators" "time (s)" "verdict";
  List.iter
    (fun inst ->
      let secs, result = time_check inst in
      Fmt.pr "%-46s %10d %12.2f %s@." inst.Instance.name
        (Instance.operator_count inst)
        secs
        (match result with
        | Ok _ -> "refines"
        | Error f -> Fmt.str "FAILED at %a" Entangle_ir.Node.pp f.operator))
    [
      Train.data_parallel ();
      Train.data_parallel ~replicas:4 ();
      Train.pipeline ();
      Train.pipeline ~microbatches:4 ~layers:3 ();
      Train.linear_backward ();
      Train.linear_backward ~degree:4 ();
    ];
  Fmt.pr
    "@.(Backward graphs are produced by Entangle_ir.Autodiff, playing      TorchDynamo's role; DP gradient sync and PP microbatch accumulation      verify with the same lemma corpus.)@."

(* --- main -------------------------------------------------------------- *)

let () =
  let experiments =
    [
      ("fig3", fig3);
      ("fig4", fig4);
      ("fig5", fig5);
      ("fig6", fig6);
      ("table3", table3);
      ("ablation", ablation);
      ("extensions", extensions);
    ]
  in
  match Array.to_list Sys.argv with
  | _ :: name :: _ -> (
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Fmt.epr "unknown experiment %s; one of: %a@." name
            Fmt.(list ~sep:comma string)
            (List.map fst experiments);
          exit 124)
  | _ -> List.iter (fun (_, f) -> f ()) experiments

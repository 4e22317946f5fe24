(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (section 6):

     fig3     end-to-end verification time per model
     fig4     scalability in parallelism degree and layer count
     fig5     lemma-corpus statistics (operators, lemmas, LoC CDF)
     fig6     lemma-application heatmap
     table3   the nine bug case studies
     ablation the section 4.3 optimizations on/off
     extensions  strategies beyond the paper (DP, PP, autodiff backward)
     perf     Bechamel micro-benchmarks (one Test.make per experiment)

   Run a single experiment with `dune exec bench/main.exe -- fig3`, or
   everything (except perf) with no argument. Absolute numbers differ
   from the paper's CloudLab testbed; the shapes are what reproduce. *)

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

let json_record ?name inst config_name secs result =
  let s = result_stats result in
  J.Obj
    [
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
    let secs, result = time_check inst in
    push (json_record ?name inst "default" secs result);
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
     than re-running the full saturation check it certifies? *)
  let cert_recheck_s, cert_export_s, cert_verify_s, cert_bytes =
    let inst = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
    let recheck_s, result = time_check ~config:Entangle.Config.default inst in
    match result with
    | Error _ ->
        Fmt.pr "gpt did not refine; certificate row skipped@.";
        (recheck_s, 0., 0., 0)
    | Ok success -> (
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
                (recheck_s, export_s, verify_s, String.length text)))
  in
  let cert_speedup = cert_recheck_s /. Float.max 1e-9 cert_verify_s in
  Fmt.pr "%-22s %10s %12s %10s@." "step" "time (s)" "bundle (B)" "speedup";
  Fmt.pr "%-22s %10.3f %12s %10s@." "full re-check" cert_recheck_s "-" "-";
  Fmt.pr "%-22s %10.3f %12d %10s@." "cert_export" cert_export_s cert_bytes "-";
  Fmt.pr "%-22s %10.3f %12d %9.0fx@." "cert_verify" cert_verify_s cert_bytes
    cert_speedup;

  let records = List.rev !json_records in
  let oc = open_out bench_egraph_json in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("schema", J.Str "entangle-bench-egraph/5");
            ("cert_recheck_s", fixed 6 cert_recheck_s);
            ("cert_export_s", fixed 6 cert_export_s);
            ("cert_verify_s", fixed 6 cert_verify_s);
            ("cert_bundle_bytes", J.Int cert_bytes);
            ("cert_verify_speedup", fixed 2 cert_speedup);
            ("runs", J.Arr records);
          ]));
  output_char oc '\n';
  close_out oc;
  Fmt.pr "wrote %s (%d runs)@." bench_egraph_json (List.length records);
  emit_reference_trace ()

(* --- Counter micro-benchmark ------------------------------------------- *)

(* Satellite check for the O(1) cached node counter: time [num_nodes]
   (cached) against [Debug.recompute_num_nodes] (O(graph)) on a
   saturated GPT e-graph, and verify they agree. *)
let counters () =
  section "Micro-benchmark: cached num_nodes vs recomputation";
  let module E = Entangle_egraph.Egraph in
  let g = E.create () in
  (* Populate with a few thousand nodes: a deep chain of sums. *)
  let sd = Entangle_symbolic.Symdim.of_int in
  let x = E.add_leaf g (Entangle_ir.Tensor.create ~name:"x" [ sd 4; sd 4 ]) in
  let acc = ref x in
  for _ = 1 to 3000 do
    acc := E.add_op g Entangle_ir.Op.Add [ !acc; x ]
  done;
  E.rebuild g;
  let time_loop f =
    let t0 = Unix.gettimeofday () in
    let r = ref 0 in
    for _ = 1 to 10_000 do
      r := f g
    done;
    (Unix.gettimeofday () -. t0, !r)
  in
  let cached_t, cached = time_loop E.num_nodes in
  let recomputed_t, recomputed = time_loop E.Debug.recompute_num_nodes in
  Fmt.pr "%-28s %12.6f s  (10k calls, %d nodes)@." "cached num_nodes"
    cached_t cached;
  Fmt.pr "%-28s %12.6f s  (10k calls, %d nodes)@." "recompute_num_nodes"
    recomputed_t recomputed;
  Fmt.pr "agreement: %s;  speedup: %.0fx@."
    (if cached = recomputed then "exact" else "MISMATCH")
    (recomputed_t /. Float.max 1e-9 cached_t);
  if cached <> recomputed then exit 1;

  (* The tracing API's zero-overhead claim: a disabled sink behind the
     [Sink.enabled] guard used at every hot call site must not allocate.
     Each loop iteration takes the same guarded path instrumented code
     takes; with [Sink.null] the args list is never built, so minor-heap
     words must stay flat. The enabled Collect sink is measured alongside
     for contrast. *)
  let module Trace = Entangle_trace in
  section "Micro-benchmark: null-sink emission cost";
  let iters = 1_000_000 in
  let guarded_emits sink =
    let module Sink = Trace.Sink in
    let module Event = Trace.Event in
    for i = 1 to iters do
      if Sink.enabled sink then
        Sink.instant sink ~cat:"bench" "tick" ~args:[ ("i", Event.Int i) ]
    done
  in
  let words_during f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  ignore (words_during (fun () -> guarded_emits Trace.Sink.null));
  let null_words = words_during (fun () -> guarded_emits Trace.Sink.null) in
  let collect = Trace.Collect.create () in
  let collect_words =
    words_during (fun () -> guarded_emits (Trace.Collect.sink collect))
  in
  Fmt.pr "%-28s %12.0f minor words  (%d guarded emits)@." "null sink"
    null_words iters;
  Fmt.pr "%-28s %12.0f minor words  (%d events collected)@." "collect sink"
    collect_words
    (Trace.Collect.length collect);
  if null_words > 0. then begin
    Fmt.epr "null sink allocated %.0f minor words; guard is not free@."
      null_words;
    exit 1
  end;
  Fmt.pr "null sink: zero allocation@."

(* --- Cache smoke: deterministic cold/warm/invalidate gate ---------------- *)

(* The @cache-smoke dune alias: a fresh store must miss on every
   operator, hit on every operator (with zero saturation work and the
   same verdict) when re-checked, and miss again once the search
   configuration changes; and the same cold/warm contract must hold
   with the frontier off, where every key covers the whole distributed
   graph. Exits non-zero on any violation. *)
let cache_smoke () =
  section "Cache smoke: cold / warm / invalidate";
  let failures = ref 0 in
  let expect what ok =
    Fmt.pr "%-58s %s@." what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  with_temp_cache (fun cache ->
      let base = Entangle.Config.default in
      let run ?(build = fun () -> Regression.build ~microbatches:2 ()) label
          config =
        let _, result =
          time_check ~config:(Entangle.Config.with_cache (Some cache) config)
            (build ())
        in
        (label, result)
      in
      let stats (_, r) = result_stats r in
      let verdict (_, r) = verdict_str r in

      let cold = run "cold" base in
      let ops = (stats cold).Entangle.Refine.operators_processed in
      expect "cold run: no hits" ((stats cold).Entangle.Refine.cache_hits = 0);
      expect
        (Fmt.str "cold run: one miss per operator (%d)" ops)
        ((stats cold).Entangle.Refine.cache_misses = ops && ops > 0);

      let warm = run "warm" base in
      expect
        (Fmt.str "warm run: every operator served from cache (%d)" ops)
        ((stats warm).Entangle.Refine.cache_hits
         = (stats warm).Entangle.Refine.operators_processed
        && (stats warm).Entangle.Refine.cache_misses = 0);
      expect "warm run: zero saturation iterations"
        ((stats warm).Entangle.Refine.saturation_iterations = 0);
      expect "warm run: verdict unchanged" (verdict cold = verdict warm);

      let changed = Entangle.Config.with_escalation [ 2 ] base in
      let invalidated = run "invalidated" changed in
      expect "config change invalidates: no hits"
        ((stats invalidated).Entangle.Refine.cache_hits = 0
        && (stats invalidated).Entangle.Refine.cache_misses > 0);
      expect "config change: verdict unchanged" (verdict cold = verdict invalidated);

      let rewarm = run "re-warm" changed in
      expect "both keys coexist: re-warm hits again"
        ((stats rewarm).Entangle.Refine.cache_hits
         = (stats rewarm).Entangle.Refine.operators_processed
        && (stats rewarm).Entangle.Refine.cache_misses = 0);

      let gpt () = Gpt.build ~layers:1 ~degree:2 ~heads:4 () in
      let whole = Entangle.Config.no_frontier in
      let whole_cold = run ~build:gpt "whole-graph cold" whole in
      let whole_ops = (stats whole_cold).Entangle.Refine.operators_processed in
      expect
        (Fmt.str "frontier off, cold: one miss per operator (%d)" whole_ops)
        ((stats whole_cold).Entangle.Refine.cache_hits = 0
        && (stats whole_cold).Entangle.Refine.cache_misses = whole_ops
        && whole_ops > 0);
      let whole_warm = run ~build:gpt "whole-graph warm" whole in
      expect "frontier off, warm: every operator served from cache"
        ((stats whole_warm).Entangle.Refine.cache_hits = whole_ops
        && (stats whole_warm).Entangle.Refine.cache_misses = 0);
      expect "frontier off, warm: zero saturation iterations"
        ((stats whole_warm).Entangle.Refine.saturation_iterations = 0);
      expect "frontier off, warm: verdict as uncached"
        (verdict whole_warm
        = verdict (time_check ~config:whole (gpt ()))));
  if !failures > 0 then begin
    Fmt.epr "cache smoke: %d violation(s)@." !failures;
    exit 1
  end;
  Fmt.pr "cache behaves deterministically@."

(* --- Serve smoke: daemon fidelity / warm cache / version negotiation ----- *)

(* The @serve-smoke dune alias. Three daemons on one temp socket, in
   sequence:
   1. uncached: remote verdicts, exit codes and statistics (modulo
      wall time) must be identical to local runs for a zoo subset and
      three bug-injected lowerings; a future protocol version must be
      rejected with a structured frame that names both versions; a
      cache request against an uncached daemon is a structured
      bad-request, and neither wedges the daemon.
   2. cached, traced: a GPT re-check on the warm daemon must be served
      entirely from cache with zero saturation — asserted on the
      daemon's own trace stream, not just the reply statistics — and
      namespaces must isolate clients sharing the store.
   3. byte-budgeted: after checking, the store must respect the LRU
      byte budget with evictions visible in the wire stats. *)
let serve_smoke () =
  let module Srv = Entangle_serve.Server in
  let module Cl = Entangle_serve.Client in
  let module P = Entangle_serve.Protocol in
  let module Trace = Entangle_trace in
  section "Serve smoke: remote fidelity / warm daemon / version negotiation";
  let failures = ref 0 in
  let expect what ok =
    Fmt.pr "%-58s %s@." what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-serve-smoke.%d.sock" (Unix.getpid ()))
  in
  let strip (s : Entangle.Refine.stats) =
    { s with Entangle.Refine.wall_time_s = 0. }
  in
  let local_tag = function
    | Ok _ -> "refines"
    | Error (f : Entangle.Refine.failure) -> (
        match f.verdict with
        | Entangle.Refine.Unmapped _ -> "unmapped"
        | Entangle.Refine.Inconclusive _ -> "inconclusive"
        | Entangle.Refine.Internal _ -> "internal")
  in
  let with_server ?cache config f =
    match Srv.create ~config ?cache ~socket:sock () with
    | Error e ->
        Fmt.epr "cannot start server: %s@." (Srv.error_message e);
        exit 1
    | Ok server ->
        let d = Domain.spawn (fun () -> Srv.run server) in
        Fun.protect
          ~finally:(fun () ->
            (match Cl.connect ~socket:sock () with
            | Ok c -> ignore (Cl.shutdown c)
            | Error _ -> ());
            Domain.join d)
          (fun () -> f server)
  in
  let with_client f =
    match Cl.connect ~socket:sock () with
    | Error e ->
        Fmt.epr "cannot connect: %s@." (Cl.error_message e);
        exit 1
    | Ok client -> Fun.protect ~finally:(fun () -> Cl.close client) (fun () -> f client)
  in
  let remote_check client ?namespace (inst : Instance.t) =
    let options =
      {
        P.default_options with
        P.family =
          Some (Entangle_lemmas.Registry.family_name inst.Instance.family);
        namespace;
      }
    in
    match
      Cl.check client ~options
        ~gs:(Entangle_ir.Serial.graph_to_sexp inst.Instance.gs)
        ~gd:(Entangle_ir.Serial.graph_to_sexp inst.Instance.gd)
        ~relation:(Entangle.Relation_io.to_sexp inst.Instance.input_relation)
        ()
    with
    | Ok (P.Checked r) -> r
    | Ok (P.Error_reply { message; _ }) ->
        Fmt.epr "daemon error: %s@." message;
        exit 1
    | Ok _ ->
        Fmt.epr "unexpected daemon reply@.";
        exit 1
    | Error e ->
        Fmt.epr "transport error: %s@." (Cl.error_message e);
        exit 1
  in

  (* 1. Fidelity against local runs, on an uncached daemon. *)
  let fidelity_insts =
    [ Regression.build ~microbatches:2 (); Gpt.build ~layers:1 ~degree:2 () ]
    @ List.map (fun id -> (Bugs.case id).Bugs.instance) [ 1; 6; 7 ]
  in
  with_server Entangle.Config.default (fun _server ->
      with_client (fun client ->
          expect "ping answers pong" (Cl.ping client = Ok ());
          (match Cl.describe client with
          | Ok json ->
              let schema = {|"schema": "entangle/serve/1"|} in
              let contains hay needle =
                let nh = String.length hay and nn = String.length needle in
                let rec at i =
                  i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
                in
                at 0
              in
              expect "describe carries the entangle/serve/1 envelope"
                (contains json schema)
          | Error _ -> expect "describe carries the entangle/serve/1 envelope" false);
          List.iter
            (fun (inst : Instance.t) ->
              let local = Instance.check inst in
              let r = remote_check client inst in
              expect
                (Fmt.str "%s: remote verdict = local" inst.Instance.name)
                (r.P.verdict = local_tag local);
              expect
                (Fmt.str "%s: remote exit code = local" inst.Instance.name)
                (r.P.exit_code = Entangle.Refine.exit_code local);
              expect
                (Fmt.str "%s: remote stats = local modulo wall time"
                   inst.Instance.name)
                (strip r.P.stats = strip (result_stats local)))
            fidelity_insts;
          match Cl.cache_stats client with
          | Ok (P.Error_reply { code = P.Bad_request; _ }) ->
              expect "uncached daemon: cache-stats is a structured bad-request"
                true
          | _ ->
              expect "uncached daemon: cache-stats is a structured bad-request"
                false);
      (* A client from the future is rejected with a frame naming both
         versions — and the daemon keeps serving afterwards. *)
      (match Cl.raw_hello ~socket:sock ~protocol:(P.protocol_version + 1) with
      | Ok (P.Rejected { expected; got; _ }) ->
          expect "future protocol: structured rejection names versions"
            (expected = P.protocol_version && got = P.protocol_version + 1)
      | _ -> expect "future protocol: structured rejection names versions" false);
      with_client (fun client ->
          expect "daemon survives the rejected client" (Cl.ping client = Ok ())));

  (* 2. Warm daemon: cached re-check with zero saturation, asserted on
     the daemon's own trace stream; namespace isolation. *)
  with_temp_cache (fun cache ->
      let collector = Trace.Collect.create () in
      let config =
        Entangle.Config.default
        |> Entangle.Config.with_trace (Trace.Collect.sink collector)
      in
      with_server ~cache config (fun _server ->
          with_client (fun client ->
              let gpt () = Gpt.build ~layers:1 ~degree:2 () in
              let iteration_events () =
                List.length
                  (List.filter
                     (fun (e : Trace.Event.t) -> e.cat = "iteration")
                     (Trace.Collect.events collector))
              in
              let cold = remote_check client (gpt ()) in
              let ops = cold.P.stats.Entangle.Refine.operators_processed in
              expect "cold daemon check: one miss per operator"
                (cold.P.stats.Entangle.Refine.cache_misses = ops
                && cold.P.stats.Entangle.Refine.cache_hits = 0
                && ops > 0);
              let iterations_cold = iteration_events () in
              expect "cold daemon check: saturation ran" (iterations_cold > 0);
              let warm = remote_check client (gpt ()) in
              expect "warm GPT re-check: every operator served from cache"
                (warm.P.stats.Entangle.Refine.cache_hits = ops
                && warm.P.stats.Entangle.Refine.cache_misses = 0);
              expect "warm GPT re-check: zero saturation in reply stats"
                (warm.P.stats.Entangle.Refine.saturation_iterations = 0);
              expect "warm GPT re-check: no saturation events on the trace"
                (iteration_events () = iterations_cold);
              expect "warm GPT re-check: verdict unchanged"
                (warm.P.verdict = cold.P.verdict && warm.P.exit_code = 0);
              expect "trace stream carries cat:serve request spans"
                (List.exists
                   (fun (e : Trace.Event.t) -> e.cat = "serve")
                   (Trace.Collect.events collector));
              let tenant = remote_check client ~namespace:"tenant-b" (gpt ()) in
              expect "fresh namespace: blind to the shared namespace"
                (tenant.P.stats.Entangle.Refine.cache_hits = 0
                && tenant.P.stats.Entangle.Refine.cache_misses = ops);
              let tenant2 = remote_check client ~namespace:"tenant-b" (gpt ()) in
              expect "namespace re-check: warm within its own namespace"
                (tenant2.P.stats.Entangle.Refine.cache_hits = ops);
              (match Cl.cache_stats client with
              | Ok (P.Cache_stats_reply r) ->
                  expect "daemon cache-stats sees both namespaces' entries"
                    (r.P.entries > ops)
              | _ ->
                  expect "daemon cache-stats sees both namespaces' entries"
                    false);
              match Cl.cache_clear client with
              | Ok (P.Cache_cleared n) ->
                  expect "cache-clear over the wire removes entries" (n > 0)
              | _ -> expect "cache-clear over the wire removes entries" false)));

  (* 3. A byte-budgeted daemon store: the LRU sweep keeps the store
     within budget, visible in the wire statistics. *)
  let lru_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-serve-smoke-lru.%d" (Unix.getpid ()))
  in
  let lru_budget = 200 in
  Fun.protect
    ~finally:(fun () -> try rm_rf lru_dir with Sys_error _ -> ())
    (fun () ->
      let budget =
        { Entangle_cache.Store.max_bytes = Some lru_budget; max_age_s = None }
      in
      match Entangle_cache.Cache.create ~dir:lru_dir ~budget () with
      | Error e ->
          Fmt.epr "cannot open budgeted cache: %s@." e;
          exit 1
      | Ok cache ->
          with_server ~cache Entangle.Config.default (fun _server ->
              with_client (fun client ->
                  let r = remote_check client (Regression.build ()) in
                  expect "budgeted daemon: check still succeeds"
                    (r.P.exit_code = 0);
                  match Cl.cache_stats client with
                  | Ok (P.Cache_stats_reply s) ->
                      expect
                        (Fmt.str "store respects the %d-byte LRU budget"
                           lru_budget)
                        (s.P.bytes <= lru_budget
                        && s.P.max_bytes = Some lru_budget);
                      expect "sweep evicted least-recently-used entries"
                        (s.P.evicted_entries > 0)
                  | _ ->
                      expect "budgeted daemon reports stats over the wire"
                        false)));
  if !failures > 0 then begin
    Fmt.epr "serve smoke: %d violation(s)@." !failures;
    exit 1
  end;
  Fmt.pr "the resident service is faithful, warm and budgeted@."

(* --- Cert smoke: tamper-evident exchange as a build gate ----------------- *)

(* The @cert-smoke dune alias: export -> verify must round-trip on the
   whole zoo; each row of the tamper matrix must be rejected with its
   own structured CERT code; and the daemon must speak cert-fetch and
   cert-push in both directions over a real socket, with the client
   re-verifying fetched bundles through the independent minimal
   verifier. *)
let cert_smoke () =
  let module CE = Entangle_certexport in
  let module Srv = Entangle_serve.Server in
  let module Cl = Entangle_serve.Client in
  let module P = Entangle_serve.Protocol in
  section "Cert smoke: round-trip / tamper matrix / daemon exchange";
  let failures = ref 0 in
  let expect what ok =
    Fmt.pr "%-58s %s@." what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let export (inst : Instance.t) =
    match Instance.check inst with
    | Error _ -> None
    | Ok success -> (
        match
          Entangle.Cert_export.bundle ~producer:"entangle-bench"
            ~gs:inst.Instance.gs ~gd:inst.Instance.gd ~env:inst.Instance.env
            ~input_relation:inst.Instance.input_relation success
        with
        | Error e ->
            Fmt.epr "%s: export failed: %s@." inst.Instance.name e;
            exit 1
        | Ok b -> Some (CE.Bundle.to_string b))
  in

  (* 1. Export -> verify round-trips on the zoo. *)
  List.iter
    (fun name ->
      match Zoo.by_name name with
      | None -> ()
      | Some inst -> (
          match export inst with
          | None -> Fmt.pr "%-58s (does not refine; skipped)@." name
          | Some text -> (
              match CE.Verify.check_string text with
              | Ok r ->
                  expect
                    (Fmt.str "%s: exported bundle verifies (%d ops)" name
                       r.CE.Verify.operators)
                    (r.CE.Verify.operators > 0)
              | Error e ->
                  Fmt.epr "%s: %a@." name CE.Cert_error.pp e;
                  expect (Fmt.str "%s: exported bundle verifies" name) false)))
    Zoo.names;

  (* 2. The tamper matrix: one deterministic mutation per defense
     layer, each rejected with its own CERT code. *)
  let reference =
    match export (Regression.build ~microbatches:2 ()) with
    | Some text -> text
    | None ->
        Fmt.epr "regression did not refine; cannot build tamper matrix@.";
        exit 1
  in
  let code_of text =
    match CE.Verify.check_string text with
    | Ok _ -> "accepted"
    | Error e -> CE.Cert_error.code_string e.CE.Cert_error.code
  in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = if i + nn > nh then None
      else if String.sub hay i nn = needle then Some i
      else at (i + 1)
    in
    at 0
  in
  let mutate_at pos f text =
    let b = Bytes.of_string text in
    Bytes.set b pos (f (Bytes.get b pos));
    Bytes.to_string b
  in
  expect "pristine bundle accepted" (code_of reference = "accepted");
  expect "truncation rejected as CERT001 parse-error"
    (code_of (String.sub reference 0 (String.length reference / 2))
    = "CERT001");
  (let skew =
     match find_sub reference "(schema 1)" with
     | Some i ->
         String.sub reference 0 i
         ^ "(schema 99)"
         ^ String.sub reference
             (i + String.length "(schema 1)")
             (String.length reference - i - String.length "(schema 1)")
     | None -> reference
   in
   expect "version skew rejected as CERT002" (code_of skew = "CERT002"));
  (let flipped =
     (* flip one digit of an env binding: a single-byte payload change
        the per-section content digest must catch *)
     match find_sub reference "(section env" with
     | None -> reference
     | Some i ->
         let rec digit j =
           if j >= String.length reference then None
           else
             match reference.[j] with
             | '0' .. '9' -> Some j
             | _ -> digit (j + 1)
         in
         (match digit (i + String.length "(section env") with
         | None -> reference
         | Some j ->
             mutate_at j (fun c -> if c = '9' then '8' else Char.chr (Char.code c + 1)) reference)
   in
   expect "section bit-flip rejected as CERT004" (code_of flipped = "CERT004"));
  (let rebound =
     (* swap one hex digit of the manifest's gs statement fingerprint:
        sections still digest clean, but the bundle now claims to
        certify a different statement *)
     match find_sub reference "(statement" with
     | None -> reference
     | Some i -> (
         match find_sub (String.sub reference i (String.length reference - i)) "(gs " with
         | None -> reference
         | Some off ->
             mutate_at (i + off + 4) (fun c -> if c = '0' then '1' else '0') reference)
   in
   expect "statement rebinding rejected as CERT005"
     (code_of rebound = "CERT005"));

  (* 3. The daemon, both directions, over a real socket. *)
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-cert-smoke.%d.sock" (Unix.getpid ()))
  in
  (match Srv.create ~config:Entangle.Config.default ~socket:sock () with
  | Error e ->
      Fmt.epr "cannot start server: %s@." (Srv.error_message e);
      exit 1
  | Ok server ->
      let d = Domain.spawn (fun () -> Srv.run server) in
      Fun.protect
        ~finally:(fun () ->
          (match Cl.connect ~socket:sock () with
          | Ok c -> ignore (Cl.shutdown c)
          | Error _ -> ());
          Domain.join d)
        (fun () ->
          match Cl.connect ~socket:sock () with
          | Error e ->
              Fmt.epr "cannot connect: %s@." (Cl.error_message e);
              exit 1
          | Ok client ->
              Fun.protect
                ~finally:(fun () -> Cl.close client)
                (fun () ->
                  let inst = Regression.build ~microbatches:2 () in
                  (* fetch: the daemon checks and exports; the client
                     re-verifies with the minimal verifier *)
                  (match
                     Cl.cert_fetch client
                       ~options:
                         {
                           P.default_options with
                           P.family =
                             Some
                               (Entangle_lemmas.Registry.family_name
                                  inst.Instance.family);
                         }
                       ~gs:(Entangle_ir.Serial.graph_to_sexp inst.Instance.gs)
                       ~gd:(Entangle_ir.Serial.graph_to_sexp inst.Instance.gd)
                       ~relation:
                         (Entangle.Relation_io.to_sexp
                            inst.Instance.input_relation)
                       ~env:
                         (Entangle.Cert_export.env_bindings inst.Instance.env)
                       ()
                   with
                  | Ok (P.Cert_bundle { bundle }) ->
                      expect "cert-fetch: client re-verification accepts"
                        (code_of bundle = "accepted")
                  | _ -> expect "cert-fetch: daemon returns a bundle" false);
                  (* push: the daemon verifies a client-produced bundle *)
                  (match Cl.cert_push client ~bundle:reference with
                  | Ok v ->
                      expect "cert-push: daemon accepts a sound bundle"
                        (v.P.accepted && v.P.cert_id <> None)
                  | Error _ ->
                      expect "cert-push: daemon accepts a sound bundle" false);
                  match
                    Cl.cert_push client
                      ~bundle:
                        (String.sub reference 0 (String.length reference / 2))
                  with
                  | Ok v ->
                      expect "cert-push: daemon rejects truncation as CERT001"
                        ((not v.P.accepted) && v.P.cert_code = Some "CERT001")
                  | Error _ ->
                      expect "cert-push: daemon rejects truncation as CERT001"
                        false)));
  if !failures > 0 then begin
    Fmt.epr "cert smoke: %d violation(s)@." !failures;
    exit 1
  end;
  Fmt.pr "certificates round-trip, tampering is caught, the daemon concurs@."

(* Chaos gate for the daemon (`dune build @chaos-smoke`): byzantine
   clients and injected faults against one live server, deterministic
   end to end.

   1. Failpoint scenarios, one at a time (scoped with
      [Failpoint.with_armed] so no trigger leaks): a torn reply frame
      (serve.frame.write) that the retry ladder must absorb, and an
      accept(2) failure (serve.accept) the loop must survive and count.
   2. The soak: six concurrent clients — two well-behaved (repeated
      checks riding the retry ladder, and a streamed check-batch), a
      slow-loris writer that stalls inside a frame, a mid-request
      disconnector, a garbage sender, and a handler-crash client
      (serve.dispatch.describe armed for the whole soak). Well-behaved
      clients must get verdicts identical to local runs; the byzantine
      ones must cost exactly their structured rejection or timeout.
   3. Counters: accepted / timed-out / rejected-busy / accept-failures
      must reflect exactly what the soak did.
   4. SIGTERM drain: a held-open idle connection, then a real SIGTERM
      against [run ~signals:true] — the loop must return, wake and
      close the idle client, unlink the socket and count the drain.
   5. Admission: a max-clients=1 daemon rejects the second client with
      a structured busy frame, and the retry ladder turns the rejection
      into a success once the slot frees. *)
let chaos_smoke () =
  let module Srv = Entangle_serve.Server in
  let module Cl = Entangle_serve.Client in
  let module P = Entangle_serve.Protocol in
  let module F = Entangle_failpoint.Failpoint in
  section "Chaos smoke: byzantine clients, failpoints, graceful drain";
  (* The byzantine clients write into dead sockets on purpose; that
     must surface as EPIPE results, not a fatal SIGPIPE. (The daemon
     ignores SIGPIPE only while [run] is live.) *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let failures = ref 0 in
  let expect what ok =
    Fmt.pr "%-58s %s@." what (if ok then "ok" else "FAIL");
    if not ok then incr failures
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "entangle-chaos-smoke.%d.sock" (Unix.getpid ()))
  in
  let strip (s : Entangle.Refine.stats) =
    { s with Entangle.Refine.wall_time_s = 0. }
  in
  let family inst =
    Some (Entangle_lemmas.Registry.family_name inst.Instance.family)
  in
  let check_req (inst : Instance.t) =
    P.Check
      {
        options = { P.default_options with P.family = family inst };
        gs = Entangle_ir.Serial.graph_to_sexp inst.Instance.gs;
        gd = Entangle_ir.Serial.graph_to_sexp inst.Instance.gd;
        relation = Entangle.Relation_io.to_sexp inst.Instance.input_relation;
      }
  in
  let batch_instance (inst : Instance.t) =
    {
      P.gs = Entangle_ir.Serial.graph_to_sexp inst.Instance.gs;
      gd = Entangle_ir.Serial.graph_to_sexp inst.Instance.gd;
      relation = Entangle.Relation_io.to_sexp inst.Instance.input_relation;
    }
  in
  (* One deterministic baseline: remote verdicts must match this. *)
  let reg = Regression.build ~microbatches:2 () in
  let baseline = Instance.check reg in
  let base_exit = Entangle.Refine.exit_code baseline in
  let base_stats = strip (result_stats baseline) in
  let matches (r : P.check_reply) =
    r.P.exit_code = base_exit && strip r.P.stats = base_stats
  in
  let ladder =
    {
      Cl.default_retry with
      Cl.retries = 8;
      timeout_s = Some 10.;
      jitter_seed = 0x5eed;
    }
  in
  let raw_dial () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let raw_handshake fd =
    let io = P.Io.of_fd fd in
    let dl = Some (Unix.gettimeofday () +. 10.) in
    ignore
      (P.Io.write_frame ?deadline:dl io
         (P.hello_to_string
            { P.protocol = P.protocol_version; client = "byzantine" }));
    ignore (P.Io.read_frame ?deadline:dl io);
    io
  in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in

  (* --- one server for the failpoint scenarios, the soak and the drain --- *)
  (match
     Srv.create ~name:"chaos" ~max_clients:8 ~io_timeout_s:1.0
       ~drain_timeout_s:10. ~socket:sock ()
   with
  | Error e ->
      Fmt.epr "cannot start server: %s@." (Srv.error_message e);
      exit 1
  | Ok server ->
      let d = Domain.spawn (fun () -> Srv.run ~signals:true server) in

      (* 1a. Torn reply frame: the daemon emits half the encoded frame
         and drops the connection; the retry ladder redials and the
         second attempt answers. *)
      F.with_armed "serve.frame.write" (F.Nth 1) (fun () ->
          match Cl.call ~retry:ladder ~socket:sock P.Ping with
          | Ok P.Pong ->
              expect "torn reply frame: retry ladder absorbs it" true
          | _ -> expect "torn reply frame: retry ladder absorbs it" false);

      (* 1b. Accept failure: the loop counts it and accepts the same
         pending connection on the next pass — the client just waits. *)
      F.with_armed "serve.accept" (F.Nth 1) (fun () ->
          match Cl.connect ~timeout_s:10. ~socket:sock () with
          | Ok c ->
              expect "accept failure: connection survives the hiccup"
                (Cl.ping c = Ok ());
              Cl.close c
          | Error _ ->
              expect "accept failure: connection survives the hiccup" false);

      (* 2. The soak: six concurrent clients against the armed daemon. *)
      let w1_replies = ref [] in
      let w2_items = ref None in
      let garbage_reply = ref None in
      let crash_kinds = ref [] in
      F.with_armed "serve.dispatch.describe" (F.Every 1) (fun () ->
          let threads =
            [
              (* well-behaved: three checks, each riding the ladder *)
              Thread.create
                (fun () ->
                  for _ = 1 to 3 do
                    match Cl.call ~retry:ladder ~socket:sock (check_req reg) with
                    | Ok (P.Checked r) -> w1_replies := r :: !w1_replies
                    | Ok _ | Error _ -> ()
                  done)
                ();
              (* well-behaved: one streamed batch, retried whole *)
              Thread.create
                (fun () ->
                  let instances =
                    [
                      batch_instance (Regression.build ~microbatches:2 ());
                      batch_instance (Regression.build ());
                    ]
                  in
                  let options =
                    { P.default_options with P.family = family reg }
                  in
                  let rec attempt n =
                    match Cl.connect ~timeout_s:10. ~socket:sock () with
                    | Error _ when n > 0 ->
                        Thread.delay 0.1;
                        attempt (n - 1)
                    | Error _ -> ()
                    | Ok c -> (
                        let r = Cl.check_batch c ~options ~instances () in
                        Cl.close c;
                        match r with
                        | Ok items -> w2_items := Some items
                        | Error _ when n > 0 ->
                            Thread.delay 0.1;
                            attempt (n - 1)
                        | Error _ -> ())
                  in
                  attempt 5)
                ();
              (* slow loris: stalls inside a frame's length prefix *)
              Thread.create
                (fun () ->
                  let fd = raw_dial () in
                  let io = raw_handshake fd in
                  ignore (P.Io.write_raw io "12");
                  Thread.delay 2.2;
                  (* the daemon timed the read out and hung up *)
                  ignore (P.Io.write_raw io "3");
                  close_fd fd)
                ();
              (* mid-request disconnect: half a frame, then gone *)
              Thread.create
                (fun () ->
                  let fd = raw_dial () in
                  let io = raw_handshake fd in
                  let enc = P.encode_frame (P.request_to_string ~id:7 P.Ping) in
                  ignore
                    (P.Io.write_raw io
                       (String.sub enc 0 (String.length enc / 2)));
                  close_fd fd)
                ();
              (* garbage: a well-framed payload that is not a request *)
              Thread.create
                (fun () ->
                  let fd = raw_dial () in
                  let io = raw_handshake fd in
                  let dl = Some (Unix.gettimeofday () +. 10.) in
                  ignore
                    (P.Io.write_frame ?deadline:dl io "(no such request)");
                  (match P.Io.read_frame ?deadline:dl io with
                  | Ok payload -> garbage_reply := Some payload
                  | Error _ -> ());
                  close_fd fd)
                ();
              (* handler crash: every describe dispatch is armed *)
              Thread.create
                (fun () ->
                  match Cl.connect ~timeout_s:10. ~socket:sock () with
                  | Error _ -> ()
                  | Ok c ->
                      for _ = 1 to 2 do
                        match Cl.describe c with
                        | Error e -> crash_kinds := e.Cl.kind :: !crash_kinds
                        | Ok _ -> ()
                      done;
                      Cl.close c)
                ();
            ]
          in
          List.iter Thread.join threads);
      expect "soak: both well-behaved clients got all verdicts"
        (List.length !w1_replies = 3 && !w2_items <> None);
      expect "soak: repeated checks byte-identical to the local run"
        (List.for_all matches !w1_replies);
      (match !w2_items with
      | Some [ P.Checked a; P.Checked b ] ->
          expect "soak: batch items stream in order, verdicts = local"
            (matches a && b.P.exit_code = 0)
      | _ -> expect "soak: batch items stream in order, verdicts = local" false);
      (match !garbage_reply with
      | Some payload -> (
          match P.response_of_string payload with
          | Ok (0, P.Error_reply { code = P.Bad_request; _ }) ->
              expect "soak: garbage gets a structured bad-request" true
          | _ -> expect "soak: garbage gets a structured bad-request" false)
      | None -> expect "soak: garbage gets a structured bad-request" false);
      expect "soak: handler crash surfaces as a structured internal error"
        (!crash_kinds <> []
        && List.for_all (fun k -> k = Cl.App) !crash_kinds);

      (* 3. The counters must reflect exactly what the soak did. *)
      (match Cl.call ~retry:ladder ~socket:sock P.Server_stats with
      | Ok (P.Server_stats_reply s) ->
          expect "counters: accepted covers every client"
            (s.P.accepted >= 9);
          expect "counters: the slow loris cost one timeout"
            (s.P.timed_out >= 1);
          expect "counters: one injected accept failure"
            (s.P.accept_failures = 1);
          expect "counters: nobody was rejected busy" (s.P.rejected_busy = 0)
      | _ ->
          expect "counters: accepted covers every client" false;
          expect "counters: the slow loris cost one timeout" false;
          expect "counters: one injected accept failure" false;
          expect "counters: nobody was rejected busy" false);

      (* 4. SIGTERM drain: a held-open idle connection must be woken
         and closed, the loop must return, the socket must vanish. *)
      let idle =
        match Cl.connect ~timeout_s:10. ~socket:sock () with
        | Ok c -> Some c
        | Error _ -> None
      in
      expect "drain: an idle client is connected" (idle <> None);
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Domain.join d;
      expect "drain: SIGTERM returns the accept loop" true;
      expect "drain: the socket file is unlinked" (not (Sys.file_exists sock));
      expect "drain: the daemon knew it was draining" (Srv.draining server);
      let s = Srv.stats server in
      expect "drain: the idle connection was woken and counted"
        (s.P.drained >= 1 && s.P.active = 0);
      (match idle with
      | Some c ->
          expect "drain: the idle client sees a dead connection"
            (match Cl.ping c with Error _ -> true | Ok () -> false);
          Cl.close c
      | None -> ()));

  (* 5. Admission: max-clients=1, a structured busy rejection, and the
     ladder turning it into a success once the slot frees. *)
  (match Srv.create ~name:"chaos-busy" ~max_clients:1 ~socket:sock () with
  | Error e ->
      Fmt.epr "cannot start busy server: %s@." (Srv.error_message e);
      exit 1
  | Ok server ->
      let d = Domain.spawn (fun () -> Srv.run server) in
      (match Cl.connect ~timeout_s:10. ~socket:sock () with
      | Error _ -> expect "admission: first client is admitted" false
      | Ok first ->
          expect "admission: first client is admitted" true;
          (match Cl.connect ~timeout_s:10. ~socket:sock () with
          | Error e ->
              expect "admission: second client gets a structured busy"
                (e.Cl.kind = Cl.Busy)
          | Ok c ->
              expect "admission: second client gets a structured busy" false;
              Cl.close c);
          let closer =
            Thread.create
              (fun () ->
                Thread.delay 0.3;
                Cl.close first)
              ()
          in
          (match Cl.call ~retry:ladder ~socket:sock P.Ping with
          | Ok P.Pong ->
              expect "admission: retry ladder wins once the slot frees" true
          | _ ->
              expect "admission: retry ladder wins once the slot frees" false);
          Thread.join closer);
      (match Cl.call ~retry:ladder ~socket:sock P.Shutdown with
      | Ok P.Bye -> expect "admission: shutdown acknowledged" true
      | _ -> expect "admission: shutdown acknowledged" false);
      Domain.join d;
      let s = Srv.stats server in
      expect "admission: the rejection was counted" (s.P.rejected_busy >= 1);
      expect "admission: socket unlinked after drain"
        (not (Sys.file_exists sock)));

  if !failures > 0 then begin
    Fmt.epr "chaos smoke: %d violation(s)@." !failures;
    exit 1
  end;
  Fmt.pr "the daemon survived every byzantine client and drained cleanly@."

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

(* --- Bechamel micro-benchmarks ----------------------------------------- *)

let perf () =
  section "Bechamel samples (one benchmark per experiment)";
  let open Bechamel in
  let benchmarks =
    [
      Test.make ~name:"fig3-regression" (Staged.stage (fun () ->
          ignore (Instance.check (Regression.build ()))));
      Test.make ~name:"fig3-gpt" (Staged.stage (fun () ->
          ignore (Instance.check (Gpt.build ~layers:1 ~degree:2 ()))));
      Test.make ~name:"fig4-gpt-degree4" (Staged.stage (fun () ->
          ignore (Instance.check (Gpt.build ~layers:1 ~degree:4 ~heads:4 ()))));
      Test.make ~name:"fig6-lemma-hits" (Staged.stage (fun () ->
          ignore (rule_hits (Instance.check (Qwen2.build ())))));
      Test.make ~name:"table3-bug6" (Staged.stage (fun () ->
          ignore (Bugs.run (Bugs.case 6))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 2.0) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
      in
      Hashtbl.iter
        (fun name wall ->
          let stats =
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock wall
          in
          match Analyze.OLS.estimates stats with
          | Some [ est ] -> Fmt.pr "%-24s %12.0f ns/run@." name est
          | _ -> Fmt.pr "%-24s (no estimate)@." name)
        results)
    benchmarks

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
      ("cache-smoke", cache_smoke);
      ("serve-smoke", serve_smoke);
      ("cert-smoke", cert_smoke);
      ("chaos-smoke", chaos_smoke);
      ("counters", counters);
      ("perf", perf);
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
  | _ ->
      (* Everything except the sampling run, which takes minutes. *)
      List.iter
        (fun (name, f) -> if name <> "perf" then f ())
        experiments

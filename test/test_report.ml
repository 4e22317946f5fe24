(* Tests for the user-facing surfaces: failure/success reports, the
   Graphviz export, per-lemma hit counters (the Figure 6 data source),
   and the configuration ablations. *)

open Entangle_ir
open Entangle_models

let check = Alcotest.check

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let report_tests =
  [
    Alcotest.test_case "failure report names the operator and inputs" `Quick
      (fun () ->
        let inst = Regression.build ~buggy:true () in
        match Instance.check inst with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error f ->
            let text = Entangle.Report.failure_to_string inst.Instance.gs f in
            check Alcotest.bool "names mse_loss" true (contains text "mse_loss");
            check Alcotest.bool "shows input relations" true
              (contains text "Input relations");
            check Alcotest.bool "shows upstream operators" true
              (contains text "Upstream operators");
            check Alcotest.bool "pred relation present" true
              (contains text "pred ->"));
    Alcotest.test_case "success report shows the output relation" `Quick
      (fun () ->
        let inst = Regression.build () in
        match Instance.check inst with
        | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        | Ok s ->
            let text = Entangle.Report.success_to_string inst.Instance.gs s in
            check Alcotest.bool "mentions R_o" true
              (contains text "Clean output relation");
            check Alcotest.bool "maps loss" true
              (contains text "loss -> accumulated_loss"));
    Alcotest.test_case "hit counters aggregate per lemma" `Quick (fun () ->
        let inst = Gpt.build () in
        let hits =
          match Instance.check inst with
          | Ok s -> s.Entangle.Refine.stats.rule_hits
          | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        in
        let count name = Option.value (List.assoc_opt name hits) ~default:0 in
        check Alcotest.bool "collective lemma used" true
          (count "all-gather-is-concat" > 0);
        check Alcotest.bool "matmul split used" true
          (count "matmul-col-split" > 0);
        (* Every counted name is a registered lemma (Figure 6's x-axis). *)
        List.iter
          (fun (name, _) ->
            check Alcotest.bool name true
              (Entangle_lemmas.Registry.find name <> None))
          hits);
    Alcotest.test_case "stats in the result reflect the run" `Quick (fun () ->
        let inst = Regression.build () in
        match Instance.check inst with
        | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        | Ok s ->
            check Alcotest.int "operators" 2 s.stats.operators_processed;
            check Alcotest.bool "wall time recorded" true
              (s.stats.wall_time_s >= 0.));
  ]

let dot_tests =
  [
    Alcotest.test_case "dot export covers nodes and edges" `Quick (fun () ->
        let inst = Regression.build () in
        let dot = Dot.to_dot inst.Instance.gs in
        check Alcotest.bool "digraph" true (contains dot "digraph");
        check Alcotest.bool "matmul box" true (contains dot "matmul");
        check Alcotest.bool "input ellipse" true (contains dot "shape=ellipse");
        check Alcotest.bool "edge with shape label" true (contains dot "[8, 4]");
        check Alcotest.bool "output marker" true (contains dot "doublecircle"));
    Alcotest.test_case "highlight marks the failing operator" `Quick (fun () ->
        let inst = Regression.build ~buggy:true () in
        match Instance.check inst with
        | Ok _ -> Alcotest.fail "expected failure"
        | Error f ->
            let dot =
              Dot.to_dot ~highlight:[ Node.output f.operator ] inst.Instance.gs
            in
            check Alcotest.bool "highlight color" true (contains dot "#f4cccc"));
  ]

let config_tests =
  [
    Alcotest.test_case "ablation configs all verify GPT" `Slow (fun () ->
        List.iter
          (fun config ->
            let inst = Gpt.build ~sp:false ~vp:false () in
            match Instance.check ~config inst with
            | Ok _ -> ()
            | Error f -> Alcotest.failf "config failed: %s" (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict))
          [ Entangle.Config.default; Entangle.Config.no_frontier ]);
    Alcotest.test_case "no_frontier explores more of the graph" `Quick
      (fun () ->
        let peak config =
          let inst = Regression.build ~microbatches:4 () in
          match Instance.check ~config inst with
          | Ok s -> s.stats.egraph_nodes_peak
          | Error f -> Alcotest.failf "failed: %s" (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        in
        check Alcotest.bool "frontier shrinks e-graphs" true
          (peak Entangle.Config.default <= peak Entangle.Config.no_frontier));
  ]

let gqa_tests =
  [
    Alcotest.test_case "grouped-query attention verifies" `Quick (fun () ->
        let arch =
          { (Transformer.llama_arch ~heads:4 ()) with
            Transformer.kv_heads = 2 }
        in
        let inst =
          Transformer.build ~arch ~layers:1 ~degree:2 ~name:"GQA"
            ~family:Entangle_lemmas.Registry.Llama ()
        in
        match Instance.check inst with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict));
    Alcotest.test_case "kv_heads must divide heads" `Quick (fun () ->
        let arch =
          { (Transformer.gpt_arch ~heads:4 ~vocab:None ()) with
            Transformer.kv_heads = 3 }
        in
        check Alcotest.bool "raises" true
          (try
             ignore
               (Transformer.build ~arch ~layers:1 ~degree:2 ~name:"bad"
                  ~family:Entangle_lemmas.Registry.Gpt ());
             false
           with Invalid_argument _ -> true));
  ]

let suite =
  [
    ("report.text", report_tests);
    ("report.dot", dot_tests);
    ("report.config", config_tests);
    ("report.gqa", gqa_tests);
  ]

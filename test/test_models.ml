(* Integration tests over the model zoo: every bug-free instance's
   graphs pass the graph linter and the checker proves refinement (both
   inside [Instance.check]), the certificate replays numerically, and
   every buggy variant is detected at a meaningful operator. *)

open Entangle_ir
open Entangle_models

let check = Alcotest.check

let assert_refines ?(certify = true) inst =
  check Alcotest.bool "input relation clean" true
    (Entangle.Relation.is_clean inst.Instance.input_relation);
  match Instance.check inst with
  | Error f ->
      Alcotest.failf "%s did not refine: %s" inst.Instance.name (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
  | Ok s ->
      check Alcotest.bool "output relation clean" true
        (Entangle.Relation.is_clean s.output_relation);
      if certify then
        match
          Entangle.Certify.replay ~env:inst.Instance.env ~gs:inst.Instance.gs
            ~gd:inst.Instance.gd ~input_relation:inst.Instance.input_relation
            ~output_relation:s.output_relation ()
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: replay failed: %s" inst.Instance.name e

let assert_fails_at op_name inst =
  match Instance.check inst with
  | Ok _ -> Alcotest.failf "%s unexpectedly refines" inst.Instance.name
  | Error f ->
      check Alcotest.string "failure operator" op_name
        (Op.name (Node.op f.operator))

let correct_models =
  [
    Alcotest.test_case "regression with gradient accumulation" `Quick (fun () ->
        assert_refines (Regression.build ()));
    Alcotest.test_case "regression with 4 microbatches" `Quick (fun () ->
        assert_refines (Regression.build ~microbatches:4 ()));
    Alcotest.test_case "GPT TP" `Quick (fun () ->
        assert_refines (Gpt.build ~sp:false ~vp:false ()));
    Alcotest.test_case "GPT TP+SP+VP" `Quick (fun () ->
        assert_refines (Gpt.build ()));
    Alcotest.test_case "GPT degree 4" `Quick (fun () ->
        assert_refines (Gpt.build ~degree:4 ()));
    Alcotest.test_case "GPT two layers" `Slow (fun () ->
        assert_refines (Gpt.build ~layers:2 ()));
    Alcotest.test_case "GPT more heads than ranks" `Quick (fun () ->
        assert_refines (Gpt.build ~heads:4 ~degree:2 ()));
    Alcotest.test_case "Llama-3 TP (HLO dialect)" `Quick (fun () ->
        assert_refines (Llama.build ()));
    Alcotest.test_case "Qwen2 TP (vLLM dialect)" `Quick (fun () ->
        assert_refines (Qwen2.build ()));
    Alcotest.test_case "ByteDance MoE TP+SP+EP" `Quick (fun () ->
        assert_refines (Moe.build ()));
    Alcotest.test_case "ByteDance MoE backward" `Quick (fun () ->
        assert_refines (Moe.build_backward ()));
    Alcotest.test_case "MoE one expert per rank" `Quick (fun () ->
        assert_refines (Moe.build ~experts:2 ~degree:2 ()));
    Alcotest.test_case "Llama-3 cannot partition 8 heads 6 ways" `Quick
      (fun () ->
        check Alcotest.bool "raises" true
          (try ignore (Llama.build ~heads:8 ~degree:6 ()); false
           with Invalid_argument _ -> true));
  ]

let buggy_models =
  [
    Alcotest.test_case "bug 1 localizes at rope" `Quick (fun () ->
        assert_fails_at "rope" (Moe.build ~bug:Moe.Rope_wrong_offset ()));
    Alcotest.test_case "bug 2 localizes at the aux consumer" `Quick (fun () ->
        assert_fails_at "mul" (Moe.build ~bug:Moe.Aux_loss_unscaled ()));
    Alcotest.test_case "bug 4 localizes at the first expert matmul" `Quick
      (fun () -> assert_fails_at "matmul" (Moe.build ~bug:Moe.Experts_sharded ()));
    Alcotest.test_case "bug 6 localizes at the loss" `Quick (fun () ->
        assert_fails_at "mse_loss" (Regression.build ~buggy:true ()));
    Alcotest.test_case "bug 7 localizes at the residual add" `Quick (fun () ->
        assert_fails_at "add"
          (Transformer.build
             ~arch:(Transformer.gpt_arch ~heads:2 ~vocab:None ())
             ~layers:1 ~degree:2 ~bug:Transformer.Missing_allreduce
             ~name:"bug7" ~family:Entangle_lemmas.Registry.Gpt ()));
  ]

let bug_catalog =
  [
    Alcotest.test_case "all nine case-study bugs are detected" `Slow (fun () ->
        List.iter
          (fun case ->
            match Bugs.run case with
            | Bugs.Detected _ -> ()
            | Bugs.Missed ->
                Alcotest.failf "bug %d (%s) missed" case.Bugs.id
                  case.Bugs.description)
          (Bugs.all ()));
    Alcotest.test_case "expectation bugs hold under plain refinement" `Quick
      (fun () ->
        (* Bugs 5/8/9 are expectation violations: plain refinement must
           still succeed (the value IS reconstructible, just not the way
           the implementation assumed). *)
        List.iter
          (fun id ->
            let case = Bugs.case id in
            let inst = case.Bugs.instance in
            match
              Entangle.Refine.check ~gs:inst.Instance.gs ~gd:inst.Instance.gd
                ~input_relation:inst.Instance.input_relation ()
            with
            | Ok _ -> ()
            | Error f ->
                Alcotest.failf "bug %d: plain refinement failed: %s" id (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict))
          [ 5; 8; 9 ]);
    Alcotest.test_case "bug-free pad/slice round trip refines" `Quick (fun () ->
        assert_refines (Bugs.pad_slice_model ~buggy:false));
    Alcotest.test_case "bug ids are 1..9" `Quick (fun () ->
        let ids = List.map (fun c -> c.Bugs.id) (Bugs.all ()) in
        check (Alcotest.list Alcotest.int) "ids" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] ids);
  ]

let lowering_tests =
  [
    Alcotest.test_case "sharding records concat relation" `Quick (fun () ->
        let open Entangle_symbolic in
        let ctx = Entangle_dist.Lower.create ~name:"t" ~degree:2 () in
        let seq = Tensor.create ~name:"x" [ Symdim.of_int 8; Symdim.of_int 4 ] in
        let shards = Entangle_dist.Lower.shard_input ctx seq ~dim:0 in
        check Alcotest.int "two shards" 2 (List.length shards);
        let _, rel = Entangle_dist.Lower.finish ctx in
        match Entangle.Relation.find rel seq with
        | [ Expr.App (Op.Concat { dim = 0 }, _) ] -> ()
        | _ -> Alcotest.fail "expected concat mapping");
    Alcotest.test_case "replication records one mapping per rank" `Quick
      (fun () ->
        let open Entangle_symbolic in
        let ctx = Entangle_dist.Lower.create ~name:"t" ~degree:3 () in
        let seq = Tensor.create ~name:"w" [ Symdim.of_int 4 ] in
        let _ = Entangle_dist.Lower.replicate_input ctx seq in
        let _, rel = Entangle_dist.Lower.finish ctx in
        check Alcotest.int "three mappings" 3
          (List.length (Entangle.Relation.find rel seq)));
    Alcotest.test_case "indivisible shard raises" `Quick (fun () ->
        let open Entangle_symbolic in
        let ctx = Entangle_dist.Lower.create ~name:"t" ~degree:3 () in
        let seq = Tensor.create ~name:"x" [ Symdim.of_int 8 ] in
        check Alcotest.bool "raises" true
          (try ignore (Entangle_dist.Lower.shard_input ctx seq ~dim:0); false
           with Invalid_argument _ -> true));
    Alcotest.test_case "partition offsets" `Quick (fun () ->
        let open Entangle_symbolic in
        let offs = Entangle_dist.Partition.offsets (Symdim.of_int 8) ~parts:4 in
        check Alcotest.int "four" 4 (List.length offs);
        let starts = List.map (fun (s, _) -> Option.get (Symdim.to_int s)) offs in
        check (Alcotest.list Alcotest.int) "starts" [ 0; 2; 4; 6 ] starts);
    Alcotest.test_case "strategy round trips" `Quick (fun () ->
        let open Entangle_dist in
        List.iter
          (fun s ->
            check Alcotest.bool (Strategy.to_string s) true
              (Strategy.of_string (Strategy.abbreviation s) = Some s))
          Strategy.all);
  ]

let zoo_tests =
  [
    Alcotest.test_case "every zoo name resolves" `Quick (fun () ->
        List.iter
          (fun name ->
            check Alcotest.bool name true (Zoo.by_name name <> None))
          Zoo.names;
        check Alcotest.bool "unknown rejected" true (Zoo.by_name "nope" = None));
    Alcotest.test_case "fig3 workload contains six instances" `Quick (fun () ->
        check Alcotest.int "count" 6 (List.length (Zoo.fig3_instances ())));
    Alcotest.test_case "checking is deterministic" `Quick (fun () ->
        let run () =
          let inst = Regression.build ~microbatches:4 () in
          match Instance.check inst with
          | Ok s ->
              Fmt.str "%a" Entangle.Relation.pp s.output_relation
              |> String.map (fun c -> if c = '\n' then ' ' else c)
          | Error _ -> "failed"
        in
        (* Tensor names repeat across builds even though ids differ, so
           the printed relation must be identical run to run. *)
        check Alcotest.string "same relation" (run ()) (run ()));
    Alcotest.test_case "MoE scales to 8 experts on 4 ranks" `Slow (fun () ->
        assert_refines ~certify:false (Moe.build ~experts:8 ~degree:4 ()));
    Alcotest.test_case "GPT degree 8 refines" `Slow (fun () ->
        assert_refines ~certify:false (Gpt.build ~degree:8 ()));
  ]

let suite =
  [
    ("models.correct", correct_models);
    ("models.buggy", buggy_models);
    ("models.bug-catalog", bug_catalog);
    ("models.lowering", lowering_tests);
    ("models.zoo", zoo_tests);
  ]

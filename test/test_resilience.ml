(* Robustness pipeline tests: structured verdicts, budgets and
   deadlines, escalation retries, multi-fault localization and the
   failpoint machinery itself. *)

open Entangle_symbolic
open Entangle_ir
open Entangle_dist
open Entangle_models
module B = Graph.Builder
module Failpoint = Entangle_failpoint.Failpoint
module Runner = Entangle_egraph.Runner

let sd = Symdim.of_int

(* Two independent activation branches joined by an add: corrupting
   each branch in the distributed graph seeds two faults that cannot
   shadow one another, while the join depends on both. *)
let branches_pair ?(bug_a = false) ?(bug_b = false) () =
  let bs = B.create "branches-seq" in
  let x = B.input bs "x" [ sd 8; sd 4 ] in
  let y = B.input bs "y" [ sd 8; sd 4 ] in
  let a = B.add bs ~name:"a" Op.Gelu [ x ] in
  let b = B.add bs ~name:"b" Op.Relu [ y ] in
  let z = B.add bs ~name:"z" Op.Add [ a; b ] in
  B.output bs z;
  let gs = B.finish bs in
  let ctx = Lower.create ~name:"branches-dist" ~degree:2 () in
  let xs = Lower.shard_input ctx x ~dim:0 in
  let ys = Lower.shard_input ctx y ~dim:0 in
  let op_a = if bug_a then Op.Silu else Op.Gelu in
  let op_b = if bug_b then Op.Tanh else Op.Relu in
  let as_ = List.map (fun t -> Lower.add ctx op_a [ t ]) xs in
  let bs_ = List.map (fun t -> Lower.add ctx op_b [ t ]) ys in
  let zs = List.map2 (fun a b -> Lower.add ctx Op.Add [ a; b ]) as_ bs_ in
  List.iter (Lower.output ctx) zs;
  let gd, input_relation = Lower.finish ctx in
  (gs, gd, input_relation)

let check ?(config = Entangle.Config.default) (gs, gd, input_relation) =
  Entangle.Refine.check ~config ~gs ~gd ~input_relation ()

let op_name n = Op.name (Node.op n)

let fail_unexpected_ok () = Alcotest.fail "expected a refinement failure"

(* --- verdicts ----------------------------------------------------------- *)

let test_unmapped_verdict () =
  match check (branches_pair ~bug_a:true ()) with
  | Ok _ -> fail_unexpected_ok ()
  | Error f -> (
      Alcotest.(check int) "exit code" 1
        (Entangle.Refine.exit_code (Error f));
      match f.Entangle.Refine.verdict with
      | Entangle.Refine.Unmapped _ -> ()
      | v ->
          Alcotest.failf "expected Unmapped, got %s"
            (Entangle.Refine.verdict_to_string v))

let test_check_deadline_inconclusive () =
  let config =
    Entangle.Config.default |> Entangle.Config.with_check_deadline (Some 0.)
  in
  match check ~config (branches_pair ()) with
  | Ok _ -> fail_unexpected_ok ()
  | Error f -> (
      Alcotest.(check int) "exit code" 2
        (Entangle.Refine.exit_code (Error f));
      match f.Entangle.Refine.verdict with
      | Entangle.Refine.Inconclusive
          {
            budget = Runner.Deadline;
            scope = Entangle.Refine.Check_scope;
            _;
          } ->
          ()
      | v ->
          Alcotest.failf "expected check-deadline Inconclusive, got %s"
            (Entangle.Refine.verdict_to_string v))

let test_op_deadline_retries () =
  (* A zero per-operator allowance makes every attempt (including both
     default escalation rungs, each with a fresh allowance) trip the
     deadline; the verdict records the rungs consumed. *)
  let config =
    Entangle.Config.default |> Entangle.Config.with_op_deadline (Some 0.)
  in
  match check ~config (branches_pair ()) with
  | Ok _ -> fail_unexpected_ok ()
  | Error f -> (
      match f.Entangle.Refine.verdict with
      | Entangle.Refine.Inconclusive
          {
            budget = Runner.Deadline;
            scope = Entangle.Refine.Operator_scope;
            retries_used;
          } ->
          Alcotest.(check int) "both rungs consumed" 2 retries_used;
          Alcotest.(check int) "retries in stats" 2
            f.Entangle.Refine.stats.Entangle.Refine.retries;
          Alcotest.(check bool) "budget trips counted" true
            (f.Entangle.Refine.stats.Entangle.Refine.budget_trips >= 3)
      | v ->
          Alcotest.failf "expected operator-deadline Inconclusive, got %s"
            (Entangle.Refine.verdict_to_string v))

let test_internal_verdict_localizes_failpoint () =
  Failpoint.clear ();
  (match Failpoint.activate_spec "egraph.ematch=nth:1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let result = check (branches_pair ()) in
  Failpoint.clear ();
  match result with
  | Ok _ -> fail_unexpected_ok ()
  | Error f -> (
      Alcotest.(check int) "exit code" 3
        (Entangle.Refine.exit_code (Error f));
      match f.Entangle.Refine.verdict with
      | Entangle.Refine.Internal { failpoint = Some "egraph.ematch"; _ } -> ()
      | v ->
          Alcotest.failf "expected Internal at egraph.ematch, got %s"
            (Entangle.Refine.verdict_to_string v))

(* --- escalation --------------------------------------------------------- *)

(* A node budget small enough that the base attempt trips it before
   finding a mapping, with a single generous rung that lifts the
   starvation: success must arrive via a retry. *)
let starved_limits = { Runner.default_limits with Runner.max_nodes = 8 }

let generous_rung = [ 64 ]

let test_escalation_recovers () =
  let base =
    Entangle.Config.default
    |> Entangle.Config.with_limits starved_limits
    |> Entangle.Config.with_escalation []
  in
  (match check ~config:base (branches_pair ()) with
  | Ok _ -> Alcotest.fail "base attempt unexpectedly succeeded; tighten limits"
  | Error f -> (
      match f.Entangle.Refine.verdict with
      | Entangle.Refine.Inconclusive
          { budget = Runner.Nodes; retries_used = 0; _ } ->
          ()
      | v ->
          Alcotest.failf "expected Inconclusive without escalation, got %s"
            (Entangle.Refine.verdict_to_string v)));
  let escalated =
    Entangle.Config.default
    |> Entangle.Config.with_limits starved_limits
    |> Entangle.Config.with_escalation generous_rung
  in
  match check ~config:escalated (branches_pair ()) with
  | Error f ->
      Alcotest.failf "escalation did not recover: %s"
        (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
  | Ok s ->
      Alcotest.(check bool) "retried at least once" true
        (s.Entangle.Refine.stats.Entangle.Refine.retries > 0)

(* --- keep_going multi-fault localization -------------------------------- *)

let keep_going_config =
  Entangle.Config.default |> Entangle.Config.with_keep_going true

let test_keep_going_finds_both_faults () =
  match
    check ~config:keep_going_config
      (branches_pair ~bug_a:true ~bug_b:true ())
  with
  | Ok _ -> fail_unexpected_ok ()
  | Error f ->
      let fault_ops =
        List.map
          (fun (fault : Entangle.Refine.fault) ->
            op_name fault.Entangle.Refine.fault_operator)
          f.Entangle.Refine.faults
      in
      Alcotest.(check (list string))
        "both independent faults localized, in topological order"
        [ "gelu"; "relu" ] fault_ops;
      Alcotest.(check (list string))
        "the join is skipped, not blamed" [ "add" ]
        (List.map op_name f.Entangle.Refine.dependents_skipped);
      (* The failure's scalar fields mirror the first fault in
         topological order, whichever branch that is. *)
      Alcotest.(check string) "first fault heads the failure"
        (List.hd fault_ops)
        (op_name f.Entangle.Refine.operator)

let is_opaque_leaf = function
  | Expr.Leaf l ->
      String.starts_with ~prefix:"%opaque:" (Fmt.str "%a" Tensor.pp_name l)
  | _ -> false

let test_keep_going_single_fault_still_checks_siblings () =
  let ((gs, _, _) as pair) = branches_pair ~bug_a:true () in
  match check ~config:keep_going_config pair with
  | Ok _ -> fail_unexpected_ok ()
  | Error f ->
      Alcotest.(check (list string))
        "only the corrupted branch is a fault" [ "gelu" ]
        (List.map
           (fun (fault : Entangle.Refine.fault) ->
             op_name fault.Entangle.Refine.fault_operator)
           f.Entangle.Refine.faults);
      Alcotest.(check (list string))
        "join skipped (tainted input)" [ "add" ]
        (List.map op_name f.Entangle.Refine.dependents_skipped);
      (* The healthy branch was still checked: its output is mapped for
         real, not by a placeholder. *)
      let b_node = List.find (fun n -> op_name n = "relu") (Graph.nodes gs) in
      let mappings =
        Entangle.Relation.find f.Entangle.Refine.partial_relation (Node.output b_node)
      in
      Alcotest.(check bool) "healthy branch genuinely mapped" true
        (mappings <> [] && not (List.exists is_opaque_leaf mappings))

let test_keep_going_placeholders_in_partial_relation () =
  match check ~config:keep_going_config (branches_pair ~bug_a:true ()) with
  | Ok _ -> fail_unexpected_ok ()
  | Error f ->
      let opaque =
        List.filter
          (fun (_, exprs) -> List.exists is_opaque_leaf exprs)
          (Entangle.Relation.bindings f.Entangle.Refine.partial_relation)
      in
      Alcotest.(check bool) "opaque placeholders bound" true (opaque <> [])

let test_keep_going_clean_model_unchanged () =
  match check ~config:keep_going_config (branches_pair ()) with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "keep_going broke a clean model: %s"
        (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)

let test_keep_going_bugs_zoo_unchanged () =
  (* Every case-study bug must still be detected with multi-fault
     localization on. *)
  List.iter
    (fun case ->
      match Bugs.run ~config:keep_going_config case with
      | Bugs.Detected _ -> ()
      | Bugs.Missed ->
          Alcotest.failf "bug %d missed under keep_going" case.Bugs.id)
    (Bugs.all ())

(* --- failpoint unit tests ----------------------------------------------- *)

let test_failpoint_nth () =
  Failpoint.clear ();
  let fp = Failpoint.declare "test.nth" in
  Failpoint.set "test.nth" (Failpoint.Nth 3);
  Failpoint.hit fp;
  Failpoint.hit fp;
  (match Failpoint.hit fp with
  | () -> Alcotest.fail "third hit should fire"
  | exception Failpoint.Injected "test.nth" -> ());
  (* One-shot: the nth trigger does not re-fire. *)
  Failpoint.hit fp;
  Alcotest.(check int) "fired once" 1 (Failpoint.fired fp);
  Failpoint.clear ()

let test_failpoint_every () =
  Failpoint.clear ();
  let fp = Failpoint.declare "test.every" in
  Failpoint.set "test.every" (Failpoint.Every 2);
  let fires = ref 0 in
  for _ = 1 to 10 do
    try Failpoint.hit fp with Failpoint.Injected _ -> incr fires
  done;
  Alcotest.(check int) "every:2 fires 5/10" 5 !fires;
  Failpoint.clear ()

let test_failpoint_prob_deterministic () =
  Failpoint.clear ();
  let fp = Failpoint.declare "test.prob" in
  let pattern () =
    Failpoint.set "test.prob" (Failpoint.Prob (0.3, 42));
    List.init 50 (fun _ ->
        try
          Failpoint.hit fp;
          false
        with Failpoint.Injected _ -> true)
  in
  let a = pattern () and b = pattern () in
  Alcotest.(check (list bool)) "same seed, same pattern" a b;
  Alcotest.(check bool) "fires sometimes" true (List.mem true a);
  Alcotest.(check bool) "not always" true (List.mem false a);
  Failpoint.clear ()

let test_failpoint_spec_parsing () =
  Failpoint.clear ();
  (match Failpoint.activate_spec "test.a=nth:2, test.b=every:3" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Pending triggers arm at declaration. *)
  let a = Failpoint.declare "test.a" in
  Alcotest.(check bool) "pending trigger armed on declare" true
    (Failpoint.armed a);
  (match Failpoint.activate_spec "test.a=off" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "off disarms" false (Failpoint.armed a);
  List.iter
    (fun bad ->
      match Failpoint.activate_spec bad with
      | Ok () -> Alcotest.failf "accepted bad spec %S" bad
      | Error _ -> ())
    [ "test.a"; "test.a=nth:0"; "test.a=sometimes"; "test.a=prob:1.5" ];
  Failpoint.clear ()

let test_failpoint_catalog_covers_subsystems () =
  (* The planted failpoints self-declare when their libraries
     initialize; by test time all four subsystems must be present. *)
  let names = Failpoint.names () in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " declared") true (List.mem n names))
    [ "egraph.rebuild"; "egraph.ematch"; "egraph.extract"; "symbolic.decide" ]

let suite =
  [
    ( "resilience.verdicts",
      [
        Alcotest.test_case "corrupted model is Unmapped (exit 1)" `Quick
          test_unmapped_verdict;
        Alcotest.test_case "check deadline is Inconclusive (exit 2)" `Quick
          test_check_deadline_inconclusive;
        Alcotest.test_case "op deadline exhausts the ladder" `Quick
          test_op_deadline_retries;
        Alcotest.test_case "injected fault is Internal (exit 3)" `Quick
          test_internal_verdict_localizes_failpoint;
      ] );
    ( "resilience.escalation",
      [
        Alcotest.test_case "ladder recovers a starved check" `Quick
          test_escalation_recovers;
      ] );
    ( "resilience.keep-going",
      [
        Alcotest.test_case "two independent faults in one run" `Quick
          test_keep_going_finds_both_faults;
        Alcotest.test_case "dependents are skipped, siblings checked" `Quick
          test_keep_going_single_fault_still_checks_siblings;
        Alcotest.test_case "faulty outputs bound to %opaque placeholders"
          `Quick test_keep_going_placeholders_in_partial_relation;
        Alcotest.test_case "clean model verdict unchanged" `Quick
          test_keep_going_clean_model_unchanged;
        Alcotest.test_case "bugs zoo still detected" `Slow
          test_keep_going_bugs_zoo_unchanged;
      ] );
    ( "resilience.failpoint",
      [
        Alcotest.test_case "nth trigger" `Quick test_failpoint_nth;
        Alcotest.test_case "every trigger" `Quick test_failpoint_every;
        Alcotest.test_case "prob trigger is seed-deterministic" `Quick
          test_failpoint_prob_deterministic;
        Alcotest.test_case "spec grammar" `Quick test_failpoint_spec_parsing;
        Alcotest.test_case "catalog covers all subsystems" `Quick
          test_failpoint_catalog_covers_subsystems;
      ] );
  ]

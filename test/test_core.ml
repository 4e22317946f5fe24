(* Tests for the core checker: relations, per-operator inference, the
   refinement algorithm, expectation checking, certification, and the
   optimization configurations. *)

open Entangle_symbolic
open Entangle_ir
module B = Graph.Builder

let check = Alcotest.check
let sd = Symdim.of_int

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- relations ----------------------------------------------------------- *)

let relation_tests =
  let a = Tensor.create ~name:"a" [ sd 2 ] in
  let b = Tensor.create ~name:"b" [ sd 2 ] in
  let e1 = Expr.leaf b in
  let e2 = Expr.app Op.Identity [ Expr.leaf b ] in
  [
    Alcotest.test_case "add dedups and sorts by size" `Quick (fun () ->
        let r = Entangle.Relation.empty in
        let r = Entangle.Relation.add r a e2 in
        let r = Entangle.Relation.add r a e1 in
        let r = Entangle.Relation.add r a e1 in
        (match Entangle.Relation.find r a with
        | [ x; y ] ->
            check Alcotest.bool "simplest first" true (Expr.equal x e1);
            check Alcotest.bool "second" true (Expr.equal y e2)
        | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
        check Alcotest.int "cardinal" 1 (Entangle.Relation.cardinal r));
    Alcotest.test_case "union merges mappings" `Quick (fun () ->
        let r1 = Entangle.Relation.singleton a e1 in
        let r2 = Entangle.Relation.singleton a e2 in
        check Alcotest.int "merged" 2
          (List.length (Entangle.Relation.find (Entangle.Relation.union r1 r2) a)));
    Alcotest.test_case "tensors_in_range" `Quick (fun () ->
        let r = Entangle.Relation.singleton a e1 in
        check Alcotest.bool "contains b" true
          (Tensor.Set.mem b (Entangle.Relation.tensors_in_range r)));
    Alcotest.test_case "complete_for and cleanliness" `Quick (fun () ->
        let r = Entangle.Relation.singleton a e1 in
        check Alcotest.bool "complete" true (Entangle.Relation.complete_for r [ a ]);
        check Alcotest.bool "incomplete" false (Entangle.Relation.complete_for r [ a; b ]);
        check Alcotest.bool "clean" true (Entangle.Relation.is_clean r);
        let dirty = Entangle.Relation.add r a (Expr.app Op.Neg [ Expr.leaf b ]) in
        check Alcotest.bool "dirty" false (Entangle.Relation.is_clean dirty));
  ]

(* --- a tiny refinement fixture (the paper's Figure 1) -------------------- *)

type fixture = {
  gs : Graph.t;
  gd : Graph.t;
  input_relation : Entangle.Relation.t;
  c : Tensor.t;  (* sequential intermediate *)
  f : Tensor.t;  (* sequential output *)
}

let figure1 ?(wrong_scatter = false) () =
  let m = 8 and k = 6 and n = 4 in
  let bs = B.create "gs" in
  let a = B.input bs "A" [ sd m; sd k ] in
  let b = B.input bs "B" [ sd k; sd n ] in
  let e = B.input bs "E" [ sd m; sd n ] in
  let c = B.add bs ~name:"C" Op.Matmul [ a; b ] in
  let f = B.add bs ~name:"F" Op.Sub [ c; e ] in
  B.output bs f;
  let gs = B.finish bs in
  let bd = B.create "gd" in
  let a1 = B.input bd "A1" [ sd m; sd (k / 2) ] in
  let a2 = B.input bd "A2" [ sd m; sd (k / 2) ] in
  let b1 = B.input bd "B1" [ sd (k / 2); sd n ] in
  let b2 = B.input bd "B2" [ sd (k / 2); sd n ] in
  let e1 = B.input bd "E1" [ sd (m / 2); sd n ] in
  let e2 = B.input bd "E2" [ sd (m / 2); sd n ] in
  let c1 = B.add bd ~name:"C1" Op.Matmul [ a1; b1 ] in
  let c2 = B.add bd ~name:"C2" Op.Matmul [ a2; b2 ] in
  (* The wrong_scatter variant gives both ranks the same chunk — a
     plausible copy-paste bug. *)
  let idx r = if wrong_scatter then 0 else r in
  let d1 =
    B.add bd ~name:"D1" (Op.Reduce_scatter { dim = 0; index = idx 0; count = 2 }) [ c1; c2 ]
  in
  let d2 =
    B.add bd ~name:"D2" (Op.Reduce_scatter { dim = 0; index = idx 1; count = 2 }) [ c1; c2 ]
  in
  let f1 = B.add bd ~name:"F1" Op.Sub [ d1; e1 ] in
  let f2 = B.add bd ~name:"F2" Op.Sub [ d2; e2 ] in
  B.output bd f1;
  B.output bd f2;
  let gd = B.finish bd in
  let concat dim parts = Expr.app (Op.Concat { dim }) (List.map Expr.leaf parts) in
  {
    gs;
    gd;
    input_relation =
      Entangle.Relation.of_list
        [ (a, concat 1 [ a1; a2 ]); (b, concat 0 [ b1; b2 ]); (e, concat 0 [ e1; e2 ]) ];
    c;
    f;
  }

let refine_tests =
  [
    Alcotest.test_case "figure 1 refines with both mappings" `Quick (fun () ->
        let fx = figure1 () in
        match
          Entangle.Refine.check ~gs:fx.gs ~gd:fx.gd
            ~input_relation:fx.input_relation ()
        with
        | Error f -> Alcotest.failf "unexpected failure: %s" (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        | Ok s ->
            check Alcotest.bool "F mapped" true
              (Entangle.Relation.mem s.output_relation fx.f);
            check Alcotest.bool "C mapped in full relation" true
              (Entangle.Relation.mem s.full_relation fx.c);
            check Alcotest.bool "output relation clean" true
              (Entangle.Relation.is_clean s.output_relation);
            (* the relation over outputs uses only distributed outputs *)
            List.iter
              (fun (_, exprs) ->
                List.iter
                  (fun e ->
                    List.iter
                      (fun leaf ->
                        check Alcotest.bool "leaf is gd output" true
                          (Graph.is_output fx.gd leaf))
                      (Expr.leaves e))
                  exprs)
              (Entangle.Relation.bindings s.output_relation));
    Alcotest.test_case "certificate replays numerically" `Quick (fun () ->
        let fx = figure1 () in
        match
          Entangle.Refine.check ~gs:fx.gs ~gd:fx.gd
            ~input_relation:fx.input_relation ()
        with
        | Error f -> Alcotest.failf "unexpected failure: %s" (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        | Ok s -> (
            match
              Entangle.Certify.replay ~env:(Interp.env_of_list []) ~gs:fx.gs
                ~gd:fx.gd ~input_relation:fx.input_relation
                ~output_relation:s.output_relation ()
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "wrong scatter indices are rejected and localized" `Quick
      (fun () ->
        let fx = figure1 ~wrong_scatter:true () in
        match
          Entangle.Refine.check ~gs:fx.gs ~gd:fx.gd
            ~input_relation:fx.input_relation ()
        with
        | Ok _ -> Alcotest.fail "buggy scatter accepted"
        | Error f ->
            check Alcotest.string "localized at the sub" "sub"
              (Op.name (Node.op f.operator));
            check Alcotest.bool "partial relation has C" true
              (Entangle.Relation.mem f.partial_relation fx.c));
    Alcotest.test_case "missing input mapping is an error" `Quick (fun () ->
        let fx = figure1 () in
        let incomplete =
          Entangle.Relation.restrict fx.input_relation (fun t ->
              Tensor.name t <> "B")
        in
        match
          Entangle.Refine.check ~gs:fx.gs ~gd:fx.gd ~input_relation:incomplete ()
        with
        | Ok _ -> Alcotest.fail "accepted incomplete input relation"
        | Error f ->
            check Alcotest.bool "mentions mapping" true
              (contains (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict) "no mapping"));
    Alcotest.test_case "non-clean input relation rejected" `Quick (fun () ->
        let fx = figure1 () in
        let dirty =
          Entangle.Relation.add fx.input_relation
            (List.hd (Graph.inputs fx.gs))
            (Expr.app Op.Neg [ Expr.leaf (List.hd (Graph.inputs fx.gd)) ])
        in
        check Alcotest.bool "raises" true
          (try
             ignore
               (Entangle.Refine.check ~gs:fx.gs ~gd:fx.gd ~input_relation:dirty ());
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "optimizations agree with baseline" `Quick (fun () ->
        let fx = figure1 () in
        List.iter
          (fun config ->
            match
              Entangle.Refine.check ~config ~gs:fx.gs ~gd:fx.gd
                ~input_relation:fx.input_relation ()
            with
            | Ok _ -> ()
            | Error f -> Alcotest.failf "config failed: %s" (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict))
          [ Entangle.Config.default; Entangle.Config.no_frontier ]);
    Alcotest.test_case "stats populated" `Quick (fun () ->
        let fx = figure1 () in
        match
          Entangle.Refine.check ~gs:fx.gs ~gd:fx.gd
            ~input_relation:fx.input_relation ()
        with
        | Error _ -> Alcotest.fail "failed"
        | Ok s ->
            check Alcotest.int "two operators" 2 s.stats.operators_processed;
            check Alcotest.bool "some rule hits" true (s.stats.rule_hits <> []);
            check Alcotest.bool "peak nodes" true (s.stats.egraph_nodes_peak > 0));
  ]

(* --- expectation checking -------------------------------------------------- *)

let expectation_tests =
  [
    Alcotest.test_case "identity expectation holds on figure 1" `Quick (fun () ->
        let fx = figure1 () in
        (* F should equal the gathered distributed outputs. *)
        let f1 = List.nth (Graph.outputs fx.gd) 0 in
        let f2 = List.nth (Graph.outputs fx.gd) 1 in
        let fd = Expr.app (Op.Concat { dim = 0 }) [ Expr.leaf f1; Expr.leaf f2 ] in
        match
          Entangle.Expectation.check ~gs:fx.gs ~gd:fx.gd
            ~input_relation:fx.input_relation ~fs:(Expr.leaf fx.f) ~fd ()
        with
        | Ok _ -> ()
        | Error v -> Alcotest.fail v.reason);
    Alcotest.test_case "wrong expectation is violated" `Quick (fun () ->
        let fx = figure1 () in
        (* Claiming F equals just rank 0's shard must be rejected. *)
        let f1 = List.nth (Graph.outputs fx.gd) 0 in
        match
          Entangle.Expectation.check ~gs:fx.gs ~gd:fx.gd
            ~input_relation:fx.input_relation ~fs:(Expr.leaf fx.f)
            ~fd:(Expr.leaf f1) ()
        with
        | Ok _ -> Alcotest.fail "wrong expectation accepted"
        | Error _ -> ());
    Alcotest.test_case "foreign expectation tensors rejected" `Quick (fun () ->
        let fx = figure1 () in
        let foreign = Tensor.create ~name:"zz" [ sd 1 ] in
        check Alcotest.bool "raises" true
          (try
             ignore
               (Entangle.Expectation.check ~gs:fx.gs ~gd:fx.gd
                  ~input_relation:fx.input_relation ~fs:(Expr.leaf foreign)
                  ~fd:(Expr.leaf foreign) ());
             false
           with Invalid_argument _ -> true));
  ]

(* --- certify rejects wrong relations --------------------------------------- *)

let certify_tests =
  [
    Alcotest.test_case "replay rejects a wrong output relation" `Quick (fun () ->
        let fx = figure1 () in
        (* Map F to only the first shard: numerically wrong. *)
        let f1 = List.nth (Graph.outputs fx.gd) 0 in
        let wrong =
          Entangle.Relation.singleton fx.f
            (Expr.app (Op.Concat { dim = 0 }) [ Expr.leaf f1; Expr.leaf f1 ])
        in
        match
          Entangle.Certify.replay ~env:(Interp.env_of_list []) ~gs:fx.gs
            ~gd:fx.gd ~input_relation:fx.input_relation ~output_relation:wrong ()
        with
        | Ok () -> Alcotest.fail "wrong relation replayed successfully"
        | Error _ -> ());
    Alcotest.test_case "replay unifies replicated inputs" `Quick (fun () ->
        (* gs: y = neg(x); gd: two replicas, y_r = neg(x_r). *)
        let bs = B.create "gs" in
        let x = B.input bs "x" [ sd 4 ] in
        let y = B.add bs ~name:"y" Op.Neg [ x ] in
        B.output bs y;
        let gs = B.finish bs in
        let bd = B.create "gd" in
        let x0 = B.input bd "x0" [ sd 4 ] in
        let x1 = B.input bd "x1" [ sd 4 ] in
        let y0 = B.add bd ~name:"y0" Op.Neg [ x0 ] in
        let _y1 = B.add bd ~name:"y1" Op.Neg [ x1 ] in
        B.output bd y0;
        let gd = B.finish bd in
        let input_relation =
          Entangle.Relation.add_all Entangle.Relation.empty x
            [ Expr.leaf x0; Expr.leaf x1 ]
        in
        match
          Entangle.Refine.check ~gs ~gd ~input_relation ()
        with
        | Error f -> Alcotest.fail (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)
        | Ok s -> (
            match
              Entangle.Certify.replay ~env:(Interp.env_of_list []) ~gs ~gd
                ~input_relation ~output_relation:s.output_relation ()
            with
            | Ok () -> ()
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "replay rejects replicas that differ in dtype or shape"
      `Quick (fun () ->
        (* gs: y = neg(x); gd: yd = neg(xd) plus an unused input zd that
           the input relation replicates with xd. Reusing xd's value for
           zd would hide a dtype clash or crash the interpreter on a
           shape clash; replay must reject both, naming the pair. *)
        let replicate ?dtype dims =
          let bs = B.create "gs" in
          let x = B.input bs "x" [ sd 4 ] in
          let y = B.add bs ~name:"y" Op.Neg [ x ] in
          B.output bs y;
          let gs = B.finish bs in
          let bd = B.create "gd" in
          let xd = B.input bd "xd" [ sd 4 ] in
          let zd = B.input bd ?dtype "zd" dims in
          let yd = B.add bd ~name:"yd" Op.Neg [ xd ] in
          B.output bd yd;
          let gd = B.finish bd in
          Entangle.Certify.replay ~env:(Interp.env_of_list []) ~gs ~gd
            ~input_relation:
              (Entangle.Relation.add_all Entangle.Relation.empty x
                 [ Expr.leaf xd; Expr.leaf zd ])
            ~output_relation:(Entangle.Relation.singleton y (Expr.leaf yd))
            ()
        in
        List.iter
          (fun (what, result) ->
            match result with
            | Ok () -> Alcotest.failf "%s replica accepted" what
            | Error e ->
                check Alcotest.bool (what ^ ": names both tensors") true
                  (contains e "xd" && contains e "zd"))
          [
            ("i64 [4]", replicate ~dtype:Dtype.I64 [ sd 4 ]);
            ("f32 [8]", replicate [ sd 8 ]);
          ]);
  ]

(* --- seed relatedness ---------------------------------------------------- *)

(* [Node_rel.related_seeds] on hand-made entries: sequential tensors
   [x] (an input of the operator), [w], [u] and [z], each mapped over
   distributed tensors, with [b] the one tensor the loaded nodes
   hold. *)
let seed_tests =
  let t name = Tensor.create ~name [ sd 4 ] in
  let x = t "x" and w = t "w" and u = t "u" and z = t "z" in
  let a = t "a" and b = t "b" and c = t "c" and d = t "d" and e = t "e" in
  let cat ts = Expr.app (Op.Concat { dim = 0 }) (List.map Expr.leaf ts) in
  let names seeds = List.map (fun (t, _) -> Tensor.name t) seeds in
  let select ?(inputs = [ x ]) ?(held = [ b ]) seeds =
    names
      (Entangle.Node_rel.related_seeds ~inputs
         ~held:(Tensor.Set.of_list held) seeds)
  in
  (* [u] reaches the loaded part only through [c], a leaf of the
     directly connected [w]; it comes first, so a single pass in list
     order does not reach it either. *)
  let seeds =
    [
      (u, [ cat [ c; d ] ]);
      (x, [ Expr.leaf a ]);
      (z, [ Expr.leaf e; cat [ e; e ] ]);
      (w, [ cat [ b; c ] ]);
    ]
  in
  (* The definition, as a fixpoint over the set of reached tensors: the
     reference the linear walk must agree with. *)
  let reference ~inputs ~held seeds =
    let leaves (t, es) = t :: List.concat_map Expr.leaves es in
    let touches reached e =
      List.exists (fun l -> Tensor.Set.mem l reached) (leaves e)
    in
    let rec grow reached =
      let next =
        List.fold_left
          (fun acc e ->
            if touches acc e then
              List.fold_left (Fun.flip Tensor.Set.add) acc (leaves e)
            else acc)
          reached seeds
      in
      if Tensor.Set.equal next reached then reached else grow next
    in
    let reached = grow (Tensor.Set.union held (Tensor.Set.of_list inputs)) in
    List.filter (touches reached) seeds
  in
  let seq = Array.init 8 (fun i -> t (Fmt.str "s%d" i)) in
  let dist = Array.init 10 (fun i -> t (Fmt.str "d%d" i)) in
  let gen =
    let open QCheck.Gen in
    let pick arr = map (Array.get arr) (int_bound (Array.length arr - 1)) in
    let mapping = map cat (list_size (int_range 1 3) (pick dist)) in
    let entry i =
      map (fun es -> (seq.(i), es)) (list_size (int_range 1 2) mapping)
    in
    let* n = int_range 0 (Array.length seq) in
    let* seeds = flatten_l (List.init n entry) in
    let* inputs = list_size (int_bound 2) (pick seq) in
    let* held = list_size (int_bound 3) (pick dist) in
    return (inputs, held, seeds)
  in
  let print (inputs, held, seeds) =
    Fmt.str "inputs %s, held %s, seeds %s"
      (String.concat " " (List.map Tensor.name inputs))
      (String.concat " " (List.map Tensor.name held))
      (String.concat "; "
         (List.map
            (fun (t, es) ->
              Tensor.name t ^ " -> "
              ^ String.concat ", " (List.map Expr.to_string es))
            seeds))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"related seeds agree with the fixpoint"
         ~count:1000
         (QCheck.make ~print gen)
         (fun (inputs, held, seeds) ->
           let held = Tensor.Set.of_list held in
           names (Entangle.Node_rel.related_seeds ~inputs ~held seeds)
           = names (reference ~inputs ~held seeds)));
    Alcotest.test_case "an input of the operator is kept" `Quick (fun () ->
        check
          Alcotest.(list string)
          "x alone" [ "x" ]
          (select ~held:[] [ (x, [ Expr.leaf a ]); (z, [ Expr.leaf e ]) ]));
    Alcotest.test_case "an entry over a loaded tensor is kept" `Quick
      (fun () ->
        check
          Alcotest.(list string)
          "w through b" [ "w" ]
          (select ~inputs:[] [ (z, [ Expr.leaf e ]); (w, [ cat [ b; c ] ]) ]));
    Alcotest.test_case "the closure keeps an entry joined through a kept one"
      `Quick (fun () ->
        check
          Alcotest.(list string)
          "u through w's leaf c, in seed order" [ "u"; "x"; "w" ]
          (select seeds));
    Alcotest.test_case "an entry joined to nothing loaded is dropped" `Quick
      (fun () ->
        check
          Alcotest.(list string)
          "z dropped" [ "x"; "w" ]
          (select
             [
               (x, [ Expr.leaf a ]); (z, [ Expr.leaf e ]); (w, [ cat [ b; c ] ]);
             ]);
        check
          Alcotest.(list string)
          "nothing loaded, nothing kept" [] (select ~inputs:[] ~held:[] seeds));
  ]

let suite =
  [
    ("core.relation", relation_tests);
    ("core.seeds", seed_tests);
    ("core.refine", refine_tests);
    ("core.expectation", expectation_tests);
    ("core.certify", certify_tests);
  ]

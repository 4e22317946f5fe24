(* Tests for the static-analysis subsystem: graph well-formedness,
   lemma soundness auditing, and e-graph invariant checking. The
   malformed fixtures are assembled with [Graph.unsafe_make], which
   bypasses the builder's checks on purpose. *)

open Entangle_symbolic
open Entangle_ir
open Entangle_egraph
open Entangle_analysis

let check = Alcotest.check
let sd = Symdim.of_int
let shape4 = Shape.of_ints [ 4; 4 ]
let tensor ?dtype ?(shape = shape4) name = Tensor.create ?dtype ~name shape

let codes ds = List.map (fun d -> d.Diagnostic.code) ds
let has_code c ds = List.mem c (codes ds)

let node id op inputs output = { Node.id; op; inputs; output }

(* --- graph well-formedness ---------------------------------------------- *)

let clean_graph () =
  let b = Graph.Builder.create "clean" in
  let x = Graph.Builder.input b "x" shape4 in
  let y = Graph.Builder.add b Op.Neg [ x ] in
  let z = Graph.Builder.add b Op.Exp [ y ] in
  Graph.Builder.output b z;
  Graph.Builder.finish b

let graph_tests =
  [
    Alcotest.test_case "clean graph has no diagnostics" `Quick (fun () ->
        check Alcotest.int "errors" 0
          (Diagnostic.count_errors (Graph_check.check (clean_graph ())));
        check Alcotest.int "warnings" 0
          (Diagnostic.count_warnings (Graph_check.check (clean_graph ()))));
    Alcotest.test_case "cycle is detected" `Quick (fun () ->
        (* a = neg b and b = neg a: producer references form a loop. *)
        let a = tensor "a" and b = tensor "b" in
        let g =
          Graph.unsafe_make ~name:"cyclic" ~inputs:[] ~outputs:[ b ]
            [ node 0 Op.Neg [ b ] a; node 1 Op.Neg [ a ] b ]
        in
        let ds = Graph_check.check g in
        check Alcotest.bool "GRAPH004" true (has_code "GRAPH004" ds);
        check Alcotest.int "nonzero exit" 1 (Lint.exit_code ds));
    Alcotest.test_case "dangling input is detected" `Quick (fun () ->
        (* [ghost] is neither a graph input nor produced by any node. *)
        let x = tensor "x" and ghost = tensor "ghost" and y = tensor "y" in
        let g =
          Graph.unsafe_make ~name:"dangling" ~inputs:[ x ] ~outputs:[ y ]
            [ node 0 Op.Add [ x; ghost ] y ]
        in
        let ds = Graph_check.check g in
        check Alcotest.bool "GRAPH001" true (has_code "GRAPH001" ds);
        check Alcotest.int "nonzero exit" 1 (Lint.exit_code ds));
    Alcotest.test_case "use before definition is detected" `Quick (fun () ->
        let x = tensor "x" and mid = tensor "mid" and y = tensor "y" in
        let g =
          Graph.unsafe_make ~name:"swapped" ~inputs:[ x ] ~outputs:[ y ]
            [ node 0 Op.Neg [ mid ] y; node 1 Op.Neg [ x ] mid ]
        in
        let ds = Graph_check.check g in
        check Alcotest.bool "GRAPH001" true (has_code "GRAPH001" ds));
    Alcotest.test_case "stale shape metadata is detected" `Quick (fun () ->
        (* neg of a [4;4] tensor recorded with a [2;2] output. *)
        let x = tensor "x" in
        let y = tensor ~shape:(Shape.of_ints [ 2; 2 ]) "y" in
        let g =
          Graph.unsafe_make ~name:"stale" ~inputs:[ x ] ~outputs:[ y ]
            [ node 0 Op.Neg [ x ] y ]
        in
        let ds = Graph_check.check g in
        check Alcotest.bool "GRAPH007" true (has_code "GRAPH007" ds);
        check Alcotest.int "nonzero exit" 1 (Lint.exit_code ds));
    Alcotest.test_case "stale dtype metadata is detected" `Quick (fun () ->
        let x = tensor "x" in
        let y = tensor ~dtype:Dtype.I64 "y" in
        let g =
          Graph.unsafe_make ~name:"staled" ~inputs:[ x ] ~outputs:[ y ]
            [ node 0 Op.Neg [ x ] y ]
        in
        check Alcotest.bool "GRAPH008" true
          (has_code "GRAPH008" (Graph_check.check g)));
    Alcotest.test_case "dead node and unused input are warnings" `Quick
      (fun () ->
        let x = tensor "x" and w = tensor "w" in
        let y = tensor "y" and dead = tensor "dead" in
        let g =
          Graph.unsafe_make ~name:"deadcode" ~inputs:[ x; w ]
            ~outputs:[ y ]
            [ node 0 Op.Neg [ x ] y; node 1 Op.Exp [ x ] dead ]
        in
        let ds = Graph_check.check g in
        check Alcotest.bool "GRAPH005" true (has_code "GRAPH005" ds);
        check Alcotest.bool "GRAPH006" true (has_code "GRAPH006" ds);
        check Alcotest.int "no errors" 0 (Diagnostic.count_errors ds));
    Alcotest.test_case "duplicate producers are detected" `Quick (fun () ->
        let x = tensor "x" and y = tensor "y" in
        let g =
          Graph.unsafe_make ~name:"dup" ~inputs:[ x ] ~outputs:[ y ]
            [ node 0 Op.Neg [ x ] y; node 1 Op.Exp [ x ] y ]
        in
        check Alcotest.bool "GRAPH002" true
          (has_code "GRAPH002" (Graph_check.check g)));
    Alcotest.test_case "missing output is detected" `Quick (fun () ->
        let x = tensor "x" and elsewhere = tensor "elsewhere" in
        let g =
          Graph.unsafe_make ~name:"noout" ~inputs:[ x ]
            ~outputs:[ elsewhere ] []
        in
        check Alcotest.bool "GRAPH009" true
          (has_code "GRAPH009" (Graph_check.check g)));
    Alcotest.test_case "consumers index matches a full scan" `Quick (fun () ->
        let b = Graph.Builder.create "fan" in
        let x = Graph.Builder.input b "x" shape4 in
        let y = Graph.Builder.add b Op.Neg [ x ] in
        let z = Graph.Builder.add b Op.Add [ x; y ] in
        let w = Graph.Builder.add b Op.Mul [ y; z ] in
        Graph.Builder.output b w;
        let g = Graph.Builder.finish b in
        List.iter
          (fun t ->
            let scanned =
              List.filter
                (fun n -> List.exists (Tensor.equal t) (Node.inputs n))
                (Graph.nodes g)
            in
            check
              Alcotest.(list int)
              (Tensor.name t)
              (List.map Node.id scanned)
              (List.map Node.id (Graph.consumers g t)))
          (Graph.tensors g));
    Alcotest.test_case "Refine.check rejects a malformed graph" `Quick
      (fun () ->
        let x = tensor "x" in
        let y = tensor ~shape:(Shape.of_ints [ 2; 2 ]) "y" in
        let gs =
          Graph.unsafe_make ~name:"bad-gs" ~inputs:[ x ] ~outputs:[ y ]
            [ node 0 Op.Neg [ x ] y ]
        in
        let gd = clean_graph () in
        let raised =
          try
            ignore
              (Entangle.Refine.check ~gs ~gd
                 ~input_relation:Entangle.Relation.empty ());
            false
          with Invalid_argument _ -> true
        in
        check Alcotest.bool "raises" true raised);
  ]

(* --- lemma auditing ------------------------------------------------------ *)

let v = Pattern.v
let p = Pattern.p

let lemma_tests =
  [
    Alcotest.test_case "unbound RHS variable is structural error" `Quick
      (fun () ->
        let l =
          Entangle_lemmas.Lemma.make "bad-unbound"
            [ Rule.make "bad-unbound" (p Op.Neg [ v "x" ]) (v "z") ]
        in
        check Alcotest.bool "LEMMA002" true
          (has_code "LEMMA002" (Lemma_check.structural [ l ])));
    Alcotest.test_case "identity rule is a warning" `Quick (fun () ->
        let l =
          Entangle_lemmas.Lemma.make "noop"
            [ Rule.make "noop" (p Op.Neg [ v "x" ]) (p Op.Neg [ v "x" ]) ]
        in
        check Alcotest.bool "LEMMA003" true
          (has_code "LEMMA003" (Lemma_check.structural [ l ])));
    Alcotest.test_case "bare-variable LHS is structural error" `Quick
      (fun () ->
        let l =
          Entangle_lemmas.Lemma.make "matches-everything"
            [ Rule.make "matches-everything" (v "x") (p Op.Neg [ v "x" ]) ]
        in
        check Alcotest.bool "LEMMA004" true
          (has_code "LEMMA004" (Lemma_check.structural [ l ])));
    Alcotest.test_case "empty lemma is structural error" `Quick (fun () ->
        let l = Entangle_lemmas.Lemma.make "hollow" [] in
        check Alcotest.bool "LEMMA001" true
          (has_code "LEMMA001" (Lemma_check.structural [ l ])));
    Alcotest.test_case "differential audit catches neg(x) -> x" `Quick
      (fun () ->
        let unsound =
          Entangle_lemmas.Lemma.make "bogus-neg-drop"
            [ Rule.make "bogus-neg-drop" (p Op.Neg [ v "x" ]) (v "x") ]
        in
        let diags, stats = Lemma_check.audit ~seed:7 [ unsound ] in
        check Alcotest.bool "LEMMA100" true (has_code "LEMMA100" diags);
        check Alcotest.bool "exercised" true (stats.lemmas_exercised = 1);
        check Alcotest.int "nonzero exit" 1 (Lint.exit_code diags));
    Alcotest.test_case "differential audit catches gelu -> silu" `Quick
      (fun () ->
        (* The two activations approximate each other — close enough to
           fool an eyeball, far enough apart for concrete evaluation. *)
        let unsound =
          Entangle_lemmas.Lemma.make "bogus-gelu-silu"
            [
              Rule.make "bogus-gelu-silu"
                (p Op.Gelu [ v "x" ])
                (p Op.Silu [ v "x" ]);
            ]
        in
        let diags, _ = Lemma_check.audit ~seed:7 [ unsound ] in
        check Alcotest.bool "LEMMA100" true (has_code "LEMMA100" diags));
    Alcotest.test_case "audit reseeds per rule: findings replay in isolation"
      `Quick (fun () ->
        (* A LEMMA100 report must reproduce from its printed coordinates
           alone: the instantiations a lemma sees are a function of the
           audit seed and the (lemma, rule, try) indices, never of how
           many random draws other lemmas consumed. Auditing the lemma
           inside a large corpus and auditing it alone must therefore
           produce byte-identical diagnostics. *)
        let unsound =
          Entangle_lemmas.Lemma.make "bogus-sub-flip"
            [
              Rule.make "bogus-sub-flip"
                (p Op.Sub [ v "x"; v "y" ])
                (p Op.Sub [ v "y"; v "x" ]);
            ]
        in
        let corpus =
          List.filteri (fun i _ -> i < 10) Entangle_lemmas.Registry.all
          @ [ unsound ]
        in
        let in_corpus, _ = Lemma_check.audit ~seed:7 corpus in
        let alone, n = Lemma_check.audit_lemma ~seed:7 unsound in
        check Alcotest.bool "exercised alone" true (n > 0);
        let msgs ds =
          List.filter_map
            (fun d ->
              if d.Diagnostic.code = "LEMMA100" then
                Some (d.Diagnostic.loc, d.Diagnostic.message)
              else None)
            ds
        in
        let findings_alone = msgs alone in
        check Alcotest.bool "found unsound" true (findings_alone <> []);
        let in_corpus_for_lemma =
          List.filter
            (fun (loc, _) ->
              match loc with
              | Diagnostic.Lemma { lemma = "bogus-sub-flip"; _ } -> true
              | _ -> false)
            (msgs in_corpus)
        in
        check Alcotest.bool "identical findings" true
          (findings_alone = in_corpus_for_lemma));
    Alcotest.test_case "sound lemmas pass the differential audit" `Quick
      (fun () ->
        let sound =
          List.filter
            (fun (l : Entangle_lemmas.Lemma.t) ->
              List.mem l.name
                [ "concat-flatten"; "slice-of-slice"; "scale-one" ])
            Entangle_lemmas.Registry.all
        in
        check Alcotest.int "found" 3 (List.length sound);
        let diags, stats = Lemma_check.audit ~seed:11 sound in
        check Alcotest.int "no errors" 0 (Diagnostic.count_errors diags);
        check Alcotest.int "all exercised" 3 stats.lemmas_exercised);
    Alcotest.test_case "registry has no duplicate names" `Quick (fun () ->
        let tbl = Hashtbl.create 128 in
        List.iter
          (fun (l : Entangle_lemmas.Lemma.t) ->
            check Alcotest.bool (l.name ^ " unique") false
              (Hashtbl.mem tbl l.name);
            Hashtbl.replace tbl l.name ())
          Entangle_lemmas.Registry.all);
    Alcotest.test_case "find resolves every registered lemma" `Quick
      (fun () ->
        List.iter
          (fun (l : Entangle_lemmas.Lemma.t) ->
            match Entangle_lemmas.Registry.find l.name with
            | Some found ->
                check Alcotest.string "name" l.name
                  found.Entangle_lemmas.Lemma.name
            | None -> Alcotest.failf "find %s returned None" l.name)
          Entangle_lemmas.Registry.all);
  ]

(* --- e-graph invariants -------------------------------------------------- *)

let egraph_tests =
  [
    Alcotest.test_case "rebuilt e-graph has no diagnostics" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "ea") in
        let b = Egraph.add_leaf g (tensor "eb") in
        ignore (Egraph.add_op g Op.Add [ a; b ]);
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        check Alcotest.int "clean" 0 (List.length (Egraph_check.check g)));
    Alcotest.test_case "pending union is EGRAPH001" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "pa") in
        let b = Egraph.add_leaf g (tensor "pb") in
        ignore (Egraph.union g a b);
        let ds = Egraph_check.check g in
        check Alcotest.bool "EGRAPH001" true (has_code "EGRAPH001" ds);
        let raised =
          try
            Egraph_check.runner_hook g;
            false
          with Egraph_check.Violation _ -> true
        in
        check Alcotest.bool "hook raises" true raised);
    Alcotest.test_case "shape clash inside a class is EGRAPH006" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "sa") in
        let b =
          Egraph.add_leaf g (tensor ~shape:(Shape.of_ints [ 2; 2 ]) "sb")
        in
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        let ds = Egraph_check.check g in
        check Alcotest.bool "EGRAPH006" true (has_code "EGRAPH006" ds);
        check Alcotest.int "nonzero exit" 1 (Lint.exit_code ds));
    Alcotest.test_case "union-time shape conflict is EGRAPH007" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "ca") in
        let b =
          Egraph.add_leaf g (tensor ~shape:(Shape.of_ints [ 2; 3 ]) "cb")
        in
        check Alcotest.bool "clean before union" false
          (has_code "EGRAPH007" (Egraph_check.check g));
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        let ds = Egraph_check.check g in
        check Alcotest.bool "EGRAPH007" true (has_code "EGRAPH007" ds);
        (* Both shapes are concrete, so the dropped disagreement is an
           error, not a warning. *)
        check Alcotest.bool "error severity" true
          (List.exists
             (fun d ->
               d.Diagnostic.code = "EGRAPH007"
               && d.Diagnostic.severity = Diagnostic.Error)
             ds));
    Alcotest.test_case "counter or index drift is EGRAPH008/9-clean on a \
                        healthy graph" `Quick (fun () ->
        (* A saturating run over real lemmas must never trip the cached
           num_nodes audit or the family-index audit. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "ha") in
        let n = Egraph.add_op g Op.Neg [ a ] in
        ignore (Egraph.add_op g Op.Exp [ n ]);
        ignore (Egraph.union g n a);
        Egraph.rebuild g;
        let ds = Egraph_check.check g in
        check Alcotest.bool "no EGRAPH008" false (has_code "EGRAPH008" ds);
        check Alcotest.bool "no EGRAPH009" false (has_code "EGRAPH009" ds));
    Alcotest.test_case "regrouping saturation is EGRAPH009/10-clean" `Quick
      (fun () ->
        (* Concat and sum nodes whose groups exist, congruent pairs that
           rebuild dedups, and the audit after every iteration. *)
        let g = Egraph.create () in
        let l =
          Array.init 4 (fun i -> Egraph.add_leaf g (tensor (Fmt.str "g%d" i)))
        in
        let add op ids = Egraph.add_op g op (List.map (Array.get l) ids) in
        let concat = Op.Concat { dim = 0 } in
        List.iter
          (fun (op, ids) -> ignore (add op ids))
          [
            (concat, [ 0; 1; 2; 3 ]);
            (concat, [ 0; 1 ]);
            (concat, [ 2; 3 ]);
            (Op.Sum_n, [ 0; 1; 2; 3 ]);
            (Op.Sum_n, [ 0; 1 ]);
            (Op.Sum_n, [ 2; 3 ]);
          ];
        ignore (Egraph.union g l.(0) l.(2));
        ignore (Egraph.union g l.(1) l.(3));
        Egraph.rebuild g;
        let ds = Egraph_check.check g in
        check Alcotest.bool "no EGRAPH009" false (has_code "EGRAPH009" ds);
        check Alcotest.bool "no EGRAPH010" false (has_code "EGRAPH010" ds);
        let rules =
          Entangle_lemmas.Lemma.rules
            (List.filter
               (fun (l : Entangle_lemmas.Lemma.t) ->
                 l.name = "concat-group" || l.name = "sum-group")
               Entangle_lemmas.Registry.all)
        in
        let report =
          Runner.run ~invariant_check:Egraph_check.runner_hook g rules
        in
        check Alcotest.bool "regrouped" true (report.Runner.unions > 0));
    Alcotest.test_case "runner accepts the invariant hook" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "ra") in
        ignore (Egraph.add_op g Op.Neg [ a ]);
        let rules =
          Entangle_lemmas.Lemma.rules
            (List.filter
               (fun (l : Entangle_lemmas.Lemma.t) ->
                 l.name = "concat-flatten")
               Entangle_lemmas.Registry.all)
        in
        let report =
          Runner.run ~invariant_check:Egraph_check.runner_hook g rules
        in
        check Alcotest.bool "ran" true (report.Runner.iterations >= 0));
    Alcotest.test_case "union-find acyclicity check" `Quick (fun () ->
        let uf = Union_find.create () in
        let a = Union_find.fresh uf and b = Union_find.fresh uf in
        ignore (Union_find.union uf a b);
        check Alcotest.bool "acyclic" true
          (Union_find.check_acyclic uf = Ok ()));
  ]

(* --- diagnostics rendering ----------------------------------------------- *)

let diagnostic_tests =
  [
    Alcotest.test_case "json escaping" `Quick (fun () ->
        let module Json = Entangle_trace.Json in
        let nasty = "quote \" backslash \\ tab \t ctrl \x01 newline \n done" in
        let d =
          Diagnostic.error ~code:"GRAPH001"
            (Diagnostic.Graph { graph = "g"; node = None; tensor = None })
            "%s" nasty
        in
        let json = Entangle_trace.Jsonw.to_string (Diagnostic.to_json d) in
        check Alcotest.bool "one line" false (String.contains json '\n');
        (match Json.parse json with
        | Ok v ->
            check Alcotest.(option string) "message survives" (Some nasty)
              (match Json.member "message" v with
              | Some (Json.Str m) -> Some m
              | _ -> None)
        | Error e -> Alcotest.failf "diagnostic JSON does not parse: %s" e);
        let ev =
          {
            Entangle_trace.Event.name = nasty;
            cat = "operator";
            phase = Entangle_trace.Event.Instant;
            ts = 0.;
            tid = 1;
            args = [ (nasty, Entangle_trace.Event.Str nasty) ];
          }
        in
        match Json.parse (Entangle_trace.Chrome.to_string [ ev ]) with
        | Ok (Json.Arr [ e ]) ->
            check Alcotest.(option string) "event name survives" (Some nasty)
              (match Json.member "name" e with
              | Some (Json.Str m) -> Some m
              | _ -> None);
            check Alcotest.(option string) "arg survives" (Some nasty)
              (match Option.bind (Json.member "args" e) (Json.member nasty) with
              | Some (Json.Str m) -> Some m
              | _ -> None)
        | Ok _ -> Alcotest.fail "trace is not a one-event array"
        | Error e -> Alcotest.failf "Chrome trace does not parse: %s" e);
    Alcotest.test_case "sort puts errors first" `Quick (fun () ->
        let w = Diagnostic.warning ~code:"X2" Diagnostic.Corpus "warn" in
        let e = Diagnostic.error ~code:"X1" Diagnostic.Corpus "err" in
        match Diagnostic.sort [ w; e ] with
        | [ first; _ ] ->
            check Alcotest.string "error first" "X1" first.Diagnostic.code
        | _ -> Alcotest.fail "expected two diagnostics");
  ]

let suite =
  [
    ("analysis:graph", graph_tests);
    ("analysis:lemmas", lemma_tests);
    ("analysis:egraph", egraph_tests);
    ("analysis:diagnostics", diagnostic_tests);
  ]

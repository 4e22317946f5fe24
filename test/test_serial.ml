(* Tests for the S-expression layer and the graph / relation file
   format: unit round trips, error reporting, and a full round trip of
   every zoo model through text followed by a re-verification. *)

open Entangle_symbolic
open Entangle_ir
open Entangle_models

let check = Alcotest.check
let sd = Symdim.of_int

let lint_errors g =
  Entangle_analysis.(Diagnostic.count_errors (Graph_check.check g))

let sexp_tests =
  [
    Alcotest.test_case "parse and print round trip" `Quick (fun () ->
        let cases =
          [ "(a b c)"; "(a (b c) d)"; "atom"; "(nested (deeply (very ())))" ]
        in
        List.iter
          (fun input ->
            match Sexp.of_string input with
            | Error e -> Alcotest.failf "%s: %s" input e
            | Ok s -> (
                match Sexp.of_string (Sexp.to_string s) with
                | Ok s' ->
                    check Alcotest.string input (Sexp.to_string s) (Sexp.to_string s')
                | Error e -> Alcotest.failf "reparse: %s" e))
          cases);
    Alcotest.test_case "comments and quoted atoms" `Quick (fun () ->
        match Sexp.of_string "; header\n(a \"b c\" ; trailing\n d)" with
        | Ok (Sexp.List [ Sexp.Atom "a"; Sexp.Atom "b c"; Sexp.Atom "d" ]) -> ()
        | Ok s -> Alcotest.failf "unexpected parse: %s" (Sexp.to_string s)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "quoted-atom escapes round trip" `Quick (fun () ->
        (* Atoms that force quoting — embedded quotes, backslashes,
           newlines, parens — must print and reparse to the same
           value, not just to something that parses. *)
        List.iter
          (fun atom ->
            let s = Sexp.list [ Sexp.atom "k"; Sexp.atom atom ] in
            match Sexp.of_string (Sexp.to_string s) with
            | Ok (Sexp.List [ Sexp.Atom "k"; Sexp.Atom atom' ]) ->
                check Alcotest.string "atom" atom atom'
            | Ok s' -> Alcotest.failf "reparsed shape: %s" (Sexp.to_string s')
            | Error e -> Alcotest.failf "reparse %S: %s" atom e)
          [
            "has \"quotes\" inside";
            "back\\slash";
            "\\\"both\\\"";
            "line\nbreak";
            "(parens)";
            "; not a comment";
            "";
          ]);
    Alcotest.test_case "parse errors" `Quick (fun () ->
        List.iter
          (fun bad ->
            check Alcotest.bool bad true (Result.is_error (Sexp.of_string bad)))
          [ "(a b"; ")"; "(a) trailing"; "\"unterminated" ]);
    Alcotest.test_case "nesting past the depth limit is an error" `Quick
      (fun () ->
        let nest d = String.make d '(' ^ String.make d ')' in
        check Alcotest.bool "at the limit" true
          (Result.is_ok (Sexp.of_string (nest Sexp.max_depth)));
        check Alcotest.bool "100k deep" true
          (Result.is_error (Sexp.of_string (nest 100_000))));
    Alcotest.test_case "excerpts are bounded and single-line" `Quick (fun () ->
        let small = Sexp.list [ Sexp.atom "a"; Sexp.atom "b c\nd" ] in
        check Alcotest.string "short term verbatim" (Sexp.to_string small)
          (Sexp.excerpt small);
        let wide =
          Sexp.list (List.init 10_000 (fun _ -> Sexp.atom "line\nbreak"))
        in
        let e = Sexp.excerpt wide in
        check Alcotest.bool "bounded" true
          (String.length e <= Sexp.excerpt_bytes + 3);
        check Alcotest.bool "single line" false (String.contains e '\n'));
  ]

let symdim_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"symdim serialization round trips" ~count:200
       QCheck.(triple (int_range (-20) 20) (int_range (-9) 9) (int_range (-9) 9))
       (fun (c, ca, cb) ->
         let d =
           Symdim.(
             add (of_int c)
               (add (mul_int ca (sym "a")) (mul_int cb (sym "b"))))
         in
         match Serial.symdim_of_sexp (Serial.symdim_to_sexp d) with
         | Ok d' -> Symdim.equal d d'
         | Error _ -> false))

let op_roundtrip_tests =
  let ops =
    [
      Op.Add; Op.Matmul; Op.Gelu; Op.Sum_n; Op.All_reduce;
      Op.Scale (Rat.make 1 2);
      Op.Concat { dim = 1 };
      Op.Slice { dim = 0; start = sd 0; stop = Symdim.mul_int 2 (Symdim.sym "s") };
      Op.Transpose { dim0 = 0; dim1 = 1 };
      Op.Reshape { shape = [ sd 2; Symdim.sym "s" ] };
      Op.Pad { dim = 1; before = sd 1; after = sd 2 };
      Op.Reduce_sum { dim = 0; keepdim = true };
      Op.Reduce_mean { dim = 1; keepdim = false };
      Op.Softmax { dim = 1 };
      Op.Layernorm { eps = 1e-5 };
      Op.Rmsnorm { eps = 1e-6 };
      Op.Reduce_scatter { dim = 0; index = 1; count = 4 };
      Op.All_gather { dim = 1 };
      Op.Swiglu_fused; Op.Hlo_dot;
      Op.Hlo_slice { dim = 0; start = sd 1; stop = sd 2 };
      Op.Hlo_concatenate { dim = 0 };
      Op.Embedding; Op.Rope; Op.Mse_loss; Op.Cross_entropy;
    ]
  in
  [
    Alcotest.test_case "operator serialization round trips" `Quick (fun () ->
        List.iter
          (fun op ->
            match Serial.op_of_sexp (Serial.op_to_sexp op) with
            | Ok op' ->
                check Alcotest.bool (Op.key op) true (Op.equal op op')
            | Error e -> Alcotest.failf "%s: %s" (Op.key op) e)
          ops);
  ]

let graph_roundtrip name inst =
  Alcotest.test_case (name ^ " round trips through text") `Slow (fun () ->
      let reload g =
        match Serial.graph_of_string (Serial.graph_to_string g) with
        | Ok g' -> g'
        | Error e -> Alcotest.failf "%s: %s" (Graph.name g) e
      in
      let gs = reload inst.Instance.gs in
      let gd = reload inst.Instance.gd in
      check Alcotest.int "node count gs" (Graph.num_nodes inst.Instance.gs)
        (Graph.num_nodes gs);
      check Alcotest.int "node count gd" (Graph.num_nodes inst.Instance.gd)
        (Graph.num_nodes gd);
      check Alcotest.int "gs lint errors" 0 (lint_errors gs);
      check Alcotest.int "gd lint errors" 0 (lint_errors gd);
      (* Relation round trip against the reloaded graphs. *)
      let rel_text = Entangle.Relation_io.to_string inst.Instance.input_relation in
      match Entangle.Relation_io.of_string ~gs ~gd rel_text with
      | Error e -> Alcotest.fail e
      | Ok input_relation -> (
          check Alcotest.int "relation cardinality"
            (Entangle.Relation.cardinal inst.Instance.input_relation)
            (Entangle.Relation.cardinal input_relation);
          (* And the reloaded triple still verifies. *)
          let rules =
            Entangle_lemmas.Registry.rules_for_model inst.Instance.family
          in
          match Entangle.Refine.check ~rules ~gs ~gd ~input_relation () with
          | Ok _ -> ()
          | Error f ->
              Alcotest.failf "reloaded check failed: %s" (Entangle.Refine.verdict_to_string f.Entangle.Refine.verdict)))

let graph_error_tests =
  [
    Alcotest.test_case "constraints keep their written order" `Quick
      (fun () ->
        let n = Symdim.sym "n" in
        let constraints =
          Constraint_store.add_ge
            (Constraint_store.add_eq
               (Constraint_store.add_positive Constraint_store.empty "n")
               (Symdim.sym "m") (Symdim.mul_int 2 n))
            (Symdim.sub (Symdim.sym "m") (sd 3))
        in
        let b = Graph.Builder.create ~constraints "c" in
        let x = Graph.Builder.input b "x" [ n ] in
        Graph.Builder.output b (Graph.Builder.add b ~name:"y" Op.Neg [ x ]);
        let text = Serial.graph_to_string (Graph.Builder.finish b) in
        match Serial.graph_of_string text with
        | Ok g -> check Alcotest.string "re-encoded" text (Serial.graph_to_string g)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "unknown operator is reported" `Quick (fun () ->
        let text =
          "(graph g (constraints) (inputs (x (shape 2) f32)) (nodes (y \
           (frobnicate) (x))) (outputs y))"
        in
        check Alcotest.bool "error" true
          (Result.is_error (Serial.graph_of_string text)));
    Alcotest.test_case "unknown tensor reference is reported" `Quick (fun () ->
        let text =
          "(graph g (constraints) (inputs (x (shape 2) f32)) (nodes (y (neg) \
           (zz))) (outputs y))"
        in
        check Alcotest.bool "error" true
          (Result.is_error (Serial.graph_of_string text)));
    Alcotest.test_case "shape errors surface through parsing" `Quick (fun () ->
        let text =
          "(graph g (constraints) (inputs (x (shape 2) f32) (w (shape 3) \
           f32)) (nodes (y (add) (x w))) (outputs y))"
        in
        check Alcotest.bool "error" true
          (Result.is_error (Serial.graph_of_string text)));
    Alcotest.test_case "errors quote a bounded excerpt of the input" `Quick
      (fun () ->
        (* 400 KB of a shallow, malformed graph must not be echoed back. *)
        let text =
          "(graph" ^ String.concat "" (List.init 200_000 (fun _ -> " a")) ^ ")"
        in
        match Serial.graph_of_string text with
        | Ok _ -> Alcotest.fail "accepted a malformed graph"
        | Error e ->
            check Alcotest.bool "under 1 KB" true (String.length e < 1024));
    Alcotest.test_case "errors quote a bounded excerpt of a huge atom" `Quick
      (fun () ->
        (* A 400 KB operator, tensor or float atom must not be echoed
           back whole. *)
        let big = String.make 400_000 'z' in
        let graph node =
          "(graph g (constraints) (inputs (x (shape 2) f32)) (nodes (y "
          ^ node ^ ")) (outputs y))"
        in
        List.iter
          (fun (what, text) ->
            match Serial.graph_of_string text with
            | Ok _ -> Alcotest.failf "%s: accepted" what
            | Error e ->
                check Alcotest.bool (what ^ " under 1 KB") true
                  (String.length e < 1024))
          [
            ("unknown operator", graph ("(" ^ big ^ ") (x)"));
            ("unknown tensor", graph ("(neg) (" ^ big ^ ")"));
            ("expected float", graph ("(layernorm " ^ big ^ ") (x)"));
          ]);
    Alcotest.test_case "duplicate tensor names rejected on write" `Quick
      (fun () ->
        let module B = Graph.Builder in
        let b = B.create "dup" in
        let _ = B.input b "x" [ sd 2 ] in
        let x2 = B.input b "x" [ sd 2 ] in
        B.output b x2;
        let g = B.finish b in
        check Alcotest.bool "raises" true
          (try ignore (Serial.graph_to_string g); false
           with Invalid_argument _ -> true));
  ]

(* Words the minor heap allocates while [f] runs. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let linear_tests =
  [
    Alcotest.test_case "untrusted lists parse in linear allocation" `Quick
      (fun () ->
        (* A fold that appends each parsed item copies the list per
           item: quadratic in a hostile file's widest list. *)
        let wide n =
          "(graph w (constraints) (inputs (x (shape 1) f32)) (nodes (y \
           (concat 0) ("
          ^ String.concat " " (List.init n (fun _ -> "x"))
          ^ "))) (outputs y))"
        in
        let many n =
          "(graph m (constraints) (inputs "
          ^ String.concat " "
              (List.init n (fun i -> Fmt.str "(x%d (shape 1) f32)" i))
          ^ ") (nodes (y (relu) (x0))) (outputs y))"
        in
        let parse text () =
          match Serial.graph_of_string text with
          | Ok g -> g
          | Error e -> Alcotest.fail e
        in
        List.iter
          (fun (what, make) ->
            let small = make 1_000 and large = make 4_000 in
            let base = minor_words (parse small) in
            let words = minor_words (parse large) in
            if words >= 5. *. base then
              Alcotest.failf "%s: %.0f words, %.0f at a quarter the size" what
                words base)
          [ ("a node 4x wider", wide); ("4x more graph inputs", many) ]);
    Alcotest.test_case "a relation's entries resolve in linear allocation"
      `Quick (fun () ->
        (* Resolving each name by a scan of the graph's tensors makes
           the parse quadratic in the relation's entries. *)
        let graph name suffix n =
          let x i = Fmt.str "x%d%s" i suffix in
          match
            Serial.graph_of_string
              (Fmt.str "(graph %s (constraints) (inputs %s) (nodes (y%s (relu) \
                        (%s))) (outputs y%s))"
                 name
                 (String.concat " "
                    (List.init n (fun i -> Fmt.str "(%s (shape 1) f32)" (x i))))
                 suffix (x 0) suffix)
          with
          | Ok g -> g
          | Error e -> Alcotest.fail e
        in
        let parse n =
          let gs = graph "s" "" n and gd = graph "d" "_d" n in
          let text =
            "(relation "
            ^ String.concat " "
                (List.init n (fun i -> Fmt.str "(x%d (tensor x%d_d))" i i))
            ^ ")"
          in
          minor_words (fun () ->
              match Entangle.Relation_io.of_string ~gs ~gd text with
              | Ok r -> r
              | Error e -> Alcotest.fail e)
        in
        let base = parse 1_000 in
        let words = parse 4_000 in
        if words >= 5. *. base then
          Alcotest.failf "%.0f words, %.0f at a quarter the entries" words
            base);
  ]

let suite =
  [
    ("serial.sexp", sexp_tests);
    ("serial.linear", linear_tests);
    ("serial.roundtrip", [ symdim_roundtrip ] @ op_roundtrip_tests);
    ( "serial.graphs",
      [
        graph_roundtrip "regression" (Regression.build ());
        graph_roundtrip "gpt" (Gpt.build ());
        graph_roundtrip "llama" (Llama.build ());
        graph_roundtrip "moe" (Moe.build ());
        graph_roundtrip "data-parallel" (Train.data_parallel ());
      ] );
    ("serial.errors", graph_error_tests);
  ]

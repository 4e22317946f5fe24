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
    Alcotest.test_case "a fault's message names the first fault" `Quick
      (fun () ->
        (* The input is read once, from the start: of two faults, the
           earlier one is reported. *)
        List.iter
          (fun (input, message) ->
            check
              Alcotest.(result unit string)
              input (Error message)
              (Result.map ignore (Sexp.of_string input)))
          [
            ("", "unexpected end of input");
            (" ; only a comment", "unexpected end of input");
            ("(a b", "missing closing parenthesis");
            (")", "unexpected closing parenthesis");
            ("(a) b", "trailing input after S-expression");
            ("(a \"b", "unterminated string");
            ("(a) \"b", "trailing input after S-expression");
            (") \"b", "unexpected closing parenthesis");
            ( String.make (Sexp.max_depth + 1) '(' ^ "\"b",
              Printf.sprintf "lists nest deeper than %d levels"
                Sexp.max_depth );
          ]);
    Alcotest.test_case "nesting past the depth limit is an error" `Quick
      (fun () ->
        let nest d = String.make d '(' ^ String.make d ')' in
        check Alcotest.bool "at the limit" true
          (Result.is_ok (Sexp.of_string (nest Sexp.max_depth)));
        check Alcotest.bool "one past the limit" true
          (Result.is_error (Sexp.of_string (nest (Sexp.max_depth + 1))));
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

(* --- the printer's bytes ---------------------------------------------- *)

(* The [Format] printer [Sexp.to_string] replaced, kept as the
   reference for its bytes: every section digest, bundle id, stored
   payload and bundle pin is computed over them. *)
let needs_quotes s =
  s = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t'
         || c = '\r' || c = ';')
       s

let rec format_pp ppf = function
  | Sexp.Atom s ->
      if needs_quotes s then Fmt.pf ppf "%S" s else Fmt.string ppf s
  | Sexp.List l ->
      Fmt.pf ppf "@[<hov 1>(%a)@]" (Fmt.list ~sep:Fmt.sp format_pp) l

let format_to_string t = Fmt.str "%a" format_pp t

(* Fails at the first byte where [got] parts from [Format]'s rendering
   of [t]. *)
let check_format_bytes what t got =
  let want = format_to_string t in
  if not (String.equal got want) then begin
    let n = min (String.length got) (String.length want) in
    let i = ref 0 in
    while !i < n && got.[!i] = want.[!i] do
      incr i
    done;
    Alcotest.failf "%s: %d bytes part from Format's %d at byte %d" what
      (String.length got) (String.length want) !i
  end

let same_bytes what t = check_format_bytes what t (Sexp.to_string t)

(* Atoms of 0 to 100 bytes, weighted to the empty atom and to 66-79
   bytes, where one atom nearly fills a line; half of them mix in bytes
   that force quoting and escaping. *)
let atom_gen =
  QCheck.Gen.(
    let length =
      frequency
        [ (1, return 0); (4, int_range 1 12); (3, int_range 66 79);
          (2, int_range 0 100) ]
    in
    let bare = char_range 'a' 'z' in
    let any =
      frequency
        [
          (6, char_range 'a' 'z');
          ( 1,
            oneofl
              [ ' '; '('; ')'; '"'; '\\'; ';'; '\n'; '\t'; '\r'; '\000';
                '\200'; '\255' ] );
        ]
    in
    pair length bool >>= fun (n, quoted) ->
    string_size ~gen:(if quoted then any else bare) (return n) >|= Sexp.atom)

let tree_gen =
  QCheck.Gen.(
    sized_size (int_bound 300)
    @@ fix (fun self n ->
           if n = 0 then atom_gen
           else
             frequency
               [
                 (1, atom_gen);
                 ( 3,
                   int_range 0 10 >>= fun k ->
                   list_repeat k (self (n / (k + 1))) >|= Sexp.list );
               ]))

(* Lists up to 5,000 wide; chains nesting up to [Sexp.max_depth], an
   atom or two beside each level; and lists that open past column 68,
   after an atom of 60-80 bytes. *)
let printer_gen =
  QCheck.Gen.(
    let wide = int_range 0 5_000 >>= fun k -> list_repeat k atom_gen in
    let deep =
      int_range 1 Sexp.max_depth >>= fun d ->
      pair atom_gen (list_repeat d (triple (int_bound 2) atom_gen atom_gen))
      >|= fun (core, levels) ->
      List.fold_left
        (fun inner (k, a, b) ->
          Sexp.list
            (match k with
            | 0 -> [ inner ]
            | 1 -> [ a; inner ]
            | _ -> [ a; inner; b ]))
        core levels
    in
    let late =
      triple (int_range 60 80) (list_size (int_range 1 4) tree_gen) bool
      >|= fun (lead, rest, nested) ->
      let l = Sexp.list (Sexp.atom (String.make lead 'x') :: rest) in
      if nested then Sexp.list [ Sexp.atom "n"; l ] else l
    in
    frequency
      [ (4, tree_gen); (1, wide >|= Sexp.list); (1, deep); (2, late) ])

let printer_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"random trees print as Format prints them"
       (QCheck.make ~print:Sexp.excerpt printer_gen)
       (fun t -> String.equal (Sexp.to_string t) (format_to_string t)))

(* A frame as the daemon or its client writes it, checked against
   [Format]'s rendering of the term it parses back to. *)
let same_frame what frame =
  match Sexp.of_string frame with
  | Ok t -> check_format_bytes what t frame
  | Error e -> Alcotest.failf "%s: %s" what e

let printer_tests =
  [
    Alcotest.test_case "a 77-byte list stays on its line, a 78-byte one breaks"
      `Quick (fun () ->
        let a = String.make 38 'a' in
        let pair k =
          let b = String.make k 'b' in
          (Sexp.list [ Sexp.atom a; Sexp.atom b ], b)
        in
        let t, b = pair 36 in
        check Alcotest.string "77 bytes" ("(" ^ a ^ " " ^ b ^ ")")
          (Sexp.to_string t);
        same_bytes "77 bytes" t;
        let t, b = pair 37 in
        check Alcotest.string "78 bytes" ("(" ^ a ^ "\n " ^ b ^ ")")
          (Sexp.to_string t);
        same_bytes "78 bytes" t);
    Alcotest.test_case "a list opening past column 68 breaks its line first"
      `Quick (fun () ->
        (* The blank before it is already out when the box opens, so
           the line ends in a blank. *)
        let x k = String.make k 'x' and tail = String.make 20 'y' in
        let t k =
          Sexp.list
            [ Sexp.atom (x k); Sexp.list [ Sexp.atom "a" ]; Sexp.atom tail ]
        in
        check Alcotest.string "opens at column 69"
          ("(" ^ x 67 ^ " \n (a) " ^ tail ^ ")")
          (Sexp.to_string (t 67));
        check Alcotest.string "opens at column 68"
          ("(" ^ x 66 ^ " (a)\n " ^ tail ^ ")")
          (Sexp.to_string (t 66));
        same_bytes "column 69" (t 67);
        same_bytes "column 68" (t 66));
    Alcotest.test_case "a full token queue prints as Format prints it"
      `Quick (fun () ->
        (* The break after the 76-byte atom prints while the twelve
           empty lists are still queued, and is still being sized when
           the next space joins them as the queue's 64th token, what
           its first ring holds: sizing the printed break must leave
           the new space's size alone. *)
        let a = String.make 76 'a' and b = String.make 50 'b' in
        let t =
          Sexp.list
            [
              Sexp.atom a;
              Sexp.list (List.init 12 (fun _ -> Sexp.list []));
              Sexp.atom b;
            ]
        in
        check Alcotest.string "layout"
          ("(" ^ a ^ "\n ("
          ^ String.concat " " (List.init 12 (fun _ -> "()"))
          ^ ")\n " ^ b ^ ")")
          (Sexp.to_string t);
        same_bytes "layout" t);
    Alcotest.test_case "nesting at the depth limit prints as Format prints it"
      `Quick (fun () ->
        let chain atoms =
          let rec go d =
            if d = 0 then Sexp.atom "core"
            else
              Sexp.list
                (List.init atoms (fun _ -> Sexp.atom "ab") @ [ go (d - 1) ])
          in
          go Sexp.max_depth
        in
        List.iter
          (fun k -> same_bytes (Fmt.str "%d atoms a level" k) (chain k))
          [ 0; 1; 3 ]);
    Alcotest.test_case "zoo graphs and relations print as Format prints them"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let inst = Option.get (Zoo.by_name name) in
            same_bytes (name ^ " gs") (Serial.graph_to_sexp inst.Instance.gs);
            same_bytes (name ^ " gd") (Serial.graph_to_sexp inst.Instance.gd);
            same_bytes (name ^ " relation")
              (Entangle.Relation_io.to_sexp inst.Instance.input_relation))
          Zoo.names);
    Alcotest.test_case "daemon frames print as Format prints them" `Quick
      (fun () ->
        let module P = Entangle_serve.Protocol in
        let options = P.default_options in
        List.iteri
          (fun id name ->
            let inst = Option.get (Zoo.by_name name) in
            let gs = Serial.graph_to_sexp inst.Instance.gs
            and gd = Serial.graph_to_sexp inst.Instance.gd
            and relation =
              Entangle.Relation_io.to_sexp inst.Instance.input_relation
            in
            same_frame (name ^ " check")
              (P.request_to_string ~id (P.Check { options; gs; gd; relation }));
            same_frame (name ^ " cert-fetch")
              (P.request_to_string ~id
                 (P.Cert_fetch
                    {
                      options;
                      gs;
                      gd;
                      relation;
                      env = Entangle.Cert_export.env_bindings inst.Instance.env;
                    })))
          Zoo.names;
        let inst = Option.get (Zoo.by_name "regression") in
        match Instance.check inst with
        | Error _ -> Alcotest.fail "regression must refine"
        | Ok success -> (
            same_frame "checked"
              (P.response_to_string ~id:1
                 (P.Checked
                    {
                      exit_code = 0;
                      verdict = "refines";
                      report =
                        Entangle.Report.success_to_string inst.Instance.gs
                          success;
                      output_relation =
                        Some
                          (Entangle.Relation_io.to_sexp
                             success.Entangle.Refine.output_relation);
                      stats = success.Entangle.Refine.stats;
                    }));
            match
              Entangle.Cert_export.bundle ~producer:"test-serial"
                ~env:inst.Instance.env
                ~input_relation:inst.Instance.input_relation success
            with
            | Error e -> Alcotest.fail e
            | Ok b ->
                let bundle = Entangle_certexport.Bundle.to_string b in
                same_frame "cert-bundle"
                  (P.response_to_string ~id:2 (P.Cert_bundle { bundle }));
                same_frame "cert-push"
                  (P.request_to_string ~id:3 (P.Cert_push { bundle }));
                same_frame "cert-verdict"
                  (P.response_to_string ~id:3
                     (P.Cert_verdict_reply
                        {
                          accepted = true;
                          cert_id = Some (Entangle_certexport.Bundle.id b);
                          cert_code = None;
                          cert_detail = "verified:\n 3 operators";
                        }))));
    printer_oracle;
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
    Alcotest.test_case "4 MiB of open parentheses is refused in under 1 MB"
      `Quick (fun () ->
        (* The depth limit is decided at byte 1,001: the rest of a
           hostile frame must cost nothing. *)
        let text = String.make (4 * 1024 * 1024) '(' in
        Gc.minor ();
        let before = Gc.allocated_bytes () in
        let result = Sexp.of_string text in
        Gc.minor ();
        let bytes = Gc.allocated_bytes () -. before in
        check Alcotest.bool "refused" true (Result.is_error result);
        if bytes >= 1e6 then Alcotest.failf "allocated %.0f bytes" bytes);
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
    ("serial.printer", printer_tests);
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

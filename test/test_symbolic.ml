(* Tests for the symbolic-integer engine: rationals, affine symbolic
   dimensions, and the Fourier-Motzkin decision procedure. *)

open Entangle_symbolic

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Rat --------------------------------------------------------------- *)

let rat_tests =
  [
    Alcotest.test_case "normalization" `Quick (fun () ->
        check Alcotest.bool "2/4 = 1/2" true Rat.(equal (make 2 4) (make 1 2));
        check Alcotest.bool "neg den" true Rat.(equal (make 1 (-2)) (make (-1) 2));
        check Alcotest.int "num" 1 (Rat.num (Rat.make 3 3));
        check Alcotest.int "den" 1 (Rat.den (Rat.make 3 3)));
    Alcotest.test_case "zero denominator rejected" `Quick (fun () ->
        Alcotest.check_raises "make 1 0" (Invalid_argument "Rat.make: zero denominator")
          (fun () -> ignore (Rat.make 1 0)));
    Alcotest.test_case "arithmetic" `Quick (fun () ->
        let half = Rat.make 1 2 and third = Rat.make 1 3 in
        check Alcotest.bool "1/2+1/3" true
          Rat.(equal (add half third) (make 5 6));
        check Alcotest.bool "1/2*1/3" true
          Rat.(equal (mul half third) (make 1 6));
        check Alcotest.bool "1/2-1/3" true
          Rat.(equal (sub half third) (make 1 6));
        check Alcotest.bool "div" true Rat.(equal (div half third) (make 3 2)));
    Alcotest.test_case "comparisons and predicates" `Quick (fun () ->
        check Alcotest.int "sign neg" (-1) (Rat.sign (Rat.make (-1) 2));
        check Alcotest.bool "1/2 < 2/3" true (Rat.compare (Rat.make 1 2) (Rat.make 2 3) < 0);
        check Alcotest.bool "integer" true (Rat.is_integer (Rat.make 4 2));
        check Alcotest.bool "not integer" false (Rat.is_integer (Rat.make 1 2));
        check (Alcotest.float 1e-9) "to_float" 0.5 (Rat.to_float (Rat.make 1 2)));
    qtest
      (QCheck.Test.make ~name:"rat field laws on small rationals" ~count:200
         QCheck.(
           quad (int_range (-20) 20) (int_range 1 20) (int_range (-20) 20)
             (int_range 1 20))
         (fun (a, b, c, d) ->
           let x = Rat.make a b and y = Rat.make c d in
           Rat.(equal (add x y) (add y x))
           && Rat.(equal (mul x y) (mul y x))
           && Rat.(equal (sub (add x y) y) x)));
  ]

(* --- Symdim ------------------------------------------------------------ *)

let sym_gen =
  (* Random affine expression over symbols a, b with small coeffs. *)
  QCheck.(
    map
      (fun (c, ca, cb) ->
        Symdim.(
          add (of_int c)
            (add (mul_int ca (sym "a")) (mul_int cb (sym "b")))))
      (triple (int_range (-10) 10) (int_range (-5) 5) (int_range (-5) 5)))

let eval_ab a b e = Symdim.eval (function "a" -> a | "b" -> b | _ -> 0) e

(* The [Format] printer [Symdim.to_string] replaced: the reference it
   is held to byte for byte. *)
let format_pp ppf a =
  match Symdim.to_int a with
  | Some c -> Fmt.int ppf c
  | None ->
      let first = ref true in
      let pp_term s c =
        let sep =
          if !first then if c < 0 then "-" else ""
          else if c < 0 then " - "
          else " + "
        in
        first := false;
        let c = abs c in
        if c = 1 then Fmt.pf ppf "%s%s" sep s else Fmt.pf ppf "%s%d%s" sep c s
      in
      List.iter (fun s -> pp_term s (Symdim.coeff a s)) (Symdim.symbols a);
      let const = Symdim.const_part a in
      if const <> 0 then
        if const > 0 then Fmt.pf ppf " + %d" const
        else Fmt.pf ppf " - %d" (-const)

(* Affine dims over up to four symbols, one named like an integer, with
   negative coefficients and zero or negative constants. *)
let gen_symdim =
  QCheck.Gen.(
    let term =
      pair (oneofl [ "n"; "s"; "sc"; "12"; "b_2" ]) (int_range (-4) 4)
      >|= fun (name, c) -> Symdim.mul_int c (Symdim.sym name)
    in
    pair (int_range (-9) 9) (list_size (int_range 0 4) term)
    >|= fun (const, terms) ->
    List.fold_left Symdim.add (Symdim.of_int const) terms)

let arb_symdim = QCheck.make ~print:(Fmt.str "%a" format_pp) gen_symdim

let symdim_tests =
  [
    Alcotest.test_case "construction and inspection" `Quick (fun () ->
        let e = Symdim.(add (mul_int 3 (sym "s")) (of_int 7)) in
        check Alcotest.int "coeff" 3 (Symdim.coeff e "s");
        check Alcotest.int "const" 7 (Symdim.const_part e);
        check (Alcotest.list Alcotest.string) "symbols" [ "s" ] (Symdim.symbols e);
        check Alcotest.bool "not const" false (Symdim.is_const e);
        check (Alcotest.option Alcotest.int) "to_int" None (Symdim.to_int e));
    Alcotest.test_case "cancellation normalizes" `Quick (fun () ->
        let s = Symdim.sym "s" in
        let e = Symdim.(sub (add s (of_int 2)) s) in
        check (Alcotest.option Alcotest.int) "s+2-s" (Some 2) (Symdim.to_int e));
    Alcotest.test_case "mul affine cases" `Quick (fun () ->
        let s = Symdim.sym "s" in
        check Alcotest.bool "const*sym" true
          (match Symdim.mul (Symdim.of_int 3) s with
          | Some e -> Symdim.equal e (Symdim.mul_int 3 s)
          | None -> false);
        check Alcotest.bool "sym*sym is not affine" true
          (Symdim.mul s s = None));
    Alcotest.test_case "div_int exact and inexact" `Quick (fun () ->
        let e = Symdim.mul_int 6 (Symdim.sym "s") in
        check Alcotest.bool "6s/3 = 2s" true
          (match Symdim.div_int e 3 with
          | Some r -> Symdim.equal r (Symdim.mul_int 2 (Symdim.sym "s"))
          | None -> false);
        check Alcotest.bool "6s/4 fails" true (Symdim.div_int e 4 = None);
        check Alcotest.bool "div by zero fails" true (Symdim.div_int e 0 = None));
    Alcotest.test_case "subst" `Quick (fun () ->
        let e = Symdim.(add (mul_int 2 (sym "s")) (of_int 1)) in
        let r = Symdim.subst (function
          | "s" -> Some (Symdim.mul_int 3 (Symdim.sym "t"))
          | _ -> None) e in
        check Alcotest.bool "2(3t)+1 = 6t+1" true
          (Symdim.equal r Symdim.(add (mul_int 6 (sym "t")) (of_int 1))));
    qtest
      (QCheck.Test.make ~name:"structural equality = semantic equality" ~count:300
         (QCheck.pair sym_gen sym_gen)
         (fun (x, y) ->
           let syntactic = Symdim.equal x y in
           let semantic =
             List.for_all
               (fun (a, b) -> eval_ab a b x = eval_ab a b y)
               [ (0, 0); (1, 0); (0, 1); (3, 5); (-2, 7); (11, -13) ]
           in
           (* Structural equality implies semantic; for affine forms over
              enough sample points, the converse holds too. *)
           syntactic = semantic));
    qtest
      (QCheck.Test.make ~name:"add/sub/eval coherence" ~count:300
         (QCheck.pair sym_gen sym_gen)
         (fun (x, y) ->
           eval_ab 3 4 (Symdim.add x y) = eval_ab 3 4 x + eval_ab 3 4 y
           && eval_ab 3 4 (Symdim.sub x y) = eval_ab 3 4 x - eval_ab 3 4 y
           && eval_ab 3 4 (Symdim.neg x) = -eval_ab 3 4 x));
  ]

(* --- Constraint store and Decide ---------------------------------------- *)

let decide_tests =
  let s = Symdim.sym "s" and t = Symdim.sym "t" in
  let store =
    Constraint_store.empty
    |> fun st -> Constraint_store.add_positive st "s"
    |> fun st -> Constraint_store.add_positive st "t"
    |> fun st -> Constraint_store.add_ge st (Symdim.sub t s)
    (* t >= s >= 1 *)
  in
  [
    Alcotest.test_case "structural equality decided without solver" `Quick
      (fun () ->
        check Alcotest.bool "s+s = 2s" true
          (Decide.prove_eq Constraint_store.empty (Symdim.add s s)
             (Symdim.mul_int 2 s)));
    Alcotest.test_case "inequalities under constraints" `Quick (fun () ->
        check Alcotest.bool "s <= t" true (Decide.prove_le store s t);
        check Alcotest.bool "not t <= s" false (Decide.prove_le store t s);
        check Alcotest.bool "0 < s" true
          (Decide.prove_lt store Symdim.zero s);
        check Alcotest.bool "s <= 2t" true
          (Decide.prove_le store s (Symdim.mul_int 2 t)));
    Alcotest.test_case "provable disequality" `Quick (fun () ->
        check Alcotest.bool "s <> s+1" true
          (Decide.prove_ne store s (Symdim.add s Symdim.one));
        check Alcotest.bool "s vs t unknown" false (Decide.prove_ne store s t));
    Alcotest.test_case "compare_known" `Quick (fun () ->
        let pp_v = Alcotest.of_pp (fun ppf -> function
          | `Eq -> Fmt.string ppf "Eq" | `Lt -> Fmt.string ppf "Lt"
          | `Gt -> Fmt.string ppf "Gt" | `Unknown -> Fmt.string ppf "Unknown") in
        check pp_v "eq" `Eq (Decide.compare_known store s s);
        check pp_v "lt" `Lt
          (Decide.compare_known store s (Symdim.add t Symdim.one));
        check pp_v "gt" `Gt (Decide.compare_known store (Symdim.add s t) s);
        check pp_v "unknown" `Unknown (Decide.compare_known store s t));
    Alcotest.test_case "feasibility" `Quick (fun () ->
        (* x >= 1 and -x >= 0 is infeasible *)
        check Alcotest.bool "infeasible" false
          (Decide.feasible [ Symdim.sub s Symdim.one; Symdim.neg s ]);
        check Alcotest.bool "feasible" true
          (Decide.feasible [ s; Symdim.sub t s ]));
    qtest
      (QCheck.Test.make ~name:"FM agrees with brute force over small ints"
         ~count:150
         QCheck.(
           pair
             (list_of_size (Gen.int_range 0 3)
                (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-4) 4)))
             (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-4) 4)))
         (fun (constrs, (ga, gb, gc)) ->
           let mk (ca, cb, c) =
             Symdim.(
               add (of_int c)
                 (add (mul_int ca (sym "a")) (mul_int cb (sym "b"))))
           in
           let store =
             Constraint_store.of_list
               (List.map (fun c -> Constraint_store.Ge (mk c)) constrs)
           in
           let goal = mk (ga, gb, gc) in
           match Decide.implies_ge store goal with
           | Decide.Unknown -> true (* incompleteness is allowed *)
           | Decide.Proved ->
               (* Soundness: every integer point in [-8,8]^2 satisfying
                  the store must satisfy the goal. *)
               let ok = ref true in
               for a = -8 to 8 do
                 for b = -8 to 8 do
                   let sat =
                     List.for_all
                       (fun c -> eval_ab a b (mk c) >= 0)
                       constrs
                   in
                   if sat && eval_ab a b goal < 0 then ok := false
                 done
               done;
               !ok));
  ]

(* The exact comparisons the model lowerings rely on: sequence lengths
   of the form 24*sc partitioned into p chunks, slice bounds, and
   padding offsets. *)
let model_arithmetic_tests =
  let sc = Symdim.sym "sc" in
  let seq = Symdim.mul_int 24 sc in
  let store = Constraint_store.add_positive Constraint_store.empty "sc" in
  let chunk p = Option.get (Symdim.div_int seq p) in
  [
    Alcotest.test_case "chunks tile the sequence" `Quick (fun () ->
        List.iter
          (fun p ->
            let c = chunk p in
            let total =
              List.fold_left
                (fun acc _ -> Symdim.add acc c)
                Symdim.zero
                (List.init p Fun.id)
            in
            check Alcotest.bool (Printf.sprintf "p=%d" p) true
              (Decide.prove_eq store total seq))
          [ 2; 3; 4; 6; 8 ]);
    Alcotest.test_case "chunk bounds are ordered" `Quick (fun () ->
        let c = chunk 4 in
        let b i = Symdim.mul_int i c in
        check Alcotest.bool "0 <= c" true (Decide.prove_le store (b 0) (b 1));
        check Alcotest.bool "3c <= seq" true (Decide.prove_le store (b 3) seq);
        check Alcotest.bool "c < 2c" true (Decide.prove_lt store (b 1) (b 2));
        check Alcotest.bool "not 2c <= c" false (Decide.prove_le store (b 2) (b 1)));
    Alcotest.test_case "padded offsets differ from unpadded" `Quick (fun () ->
        let c = chunk 2 in
        let padded = Symdim.add c (Symdim.of_int 2) in
        check Alcotest.bool "provably different" true
          (Decide.prove_ne store c padded));
    Alcotest.test_case "indivisible symbolic split fails" `Quick (fun () ->
        check Alcotest.bool "24sc/5" true (Symdim.div_int seq 5 = None);
        check Alcotest.bool "24sc/7" true (Symdim.div_int seq 7 = None));
  ]

(* --- Decide soundness properties ---------------------------------------- *)

(* Randomized soundness: build a store whose constraints hold at a
   hidden witness assignment by construction, then check that anything
   the engine claims to prove also holds at the witness. This can never
   catch incompleteness (Unknown is always allowed) — only unsoundness,
   which is the property the lemma verifier's refutation logic leans
   on. *)
let decide_property_tests =
  let nsyms = 4 in
  let sym_name i = Printf.sprintf "q%d" i in
  let affine_gen =
    QCheck.Gen.(
      pair
        (array_repeat nsyms (int_range (-3) 3))
        (int_range (-5) 5))
  in
  let to_symdim (coeffs, c) =
    Array.to_list coeffs
    |> List.mapi (fun i k -> Symdim.mul_int k (Symdim.sym (sym_name i)))
    |> List.fold_left Symdim.add (Symdim.of_int c)
  in
  let eval_affine witness (coeffs, c) =
    c + Array.fold_left ( + ) 0 (Array.mapi (fun i k -> k * witness.(i)) coeffs)
  in
  let scenario_gen =
    QCheck.Gen.(
      triple
        (array_repeat nsyms (int_range 0 5)) (* hidden witness *)
        (list_size (int_range 0 6) affine_gen) (* store seeds *)
        (pair affine_gen affine_gen)) (* queries *)
  in
  let scenario = QCheck.make scenario_gen in
  (* every seed expression is anchored so it holds (tightly) at the
     witness: e - e(witness) >= 0, occasionally strengthened to an
     equality via add_eq *)
  let build_store witness seeds =
    List.fold_left
      (fun (store, flip) e ->
        let anchored =
          Symdim.sub (to_symdim e) (Symdim.of_int (eval_affine witness e))
        in
        ( (if flip then Constraint_store.add_eq store anchored Symdim.zero
           else Constraint_store.add_ge store anchored),
          not flip ))
      (Constraint_store.empty, false)
      seeds
    |> fst
  in
  [
    qtest
      (QCheck.Test.make ~name:"implies_ge Proved holds at the witness"
         ~count:500 scenario (fun (witness, seeds, (qa, _)) ->
           let store = build_store witness seeds in
           match Decide.implies_ge store (to_symdim qa) with
           | Decide.Unknown -> true
           | Decide.Proved -> eval_affine witness qa >= 0));
    qtest
      (QCheck.Test.make ~name:"prove_eq holds at the witness" ~count:500
         scenario (fun (witness, seeds, (qa, qb)) ->
           let store = build_store witness seeds in
           (not (Decide.prove_eq store (to_symdim qa) (to_symdim qb)))
           || eval_affine witness qa = eval_affine witness qb));
    qtest
      (QCheck.Test.make ~name:"prove_lt never holds at a refuting witness"
         ~count:500 scenario (fun (witness, seeds, (qa, qb)) ->
           let store = build_store witness seeds in
           (not (Decide.prove_lt store (to_symdim qa) (to_symdim qb)))
           || eval_affine witness qa < eval_affine witness qb));
    Alcotest.test_case "row budget degrades to Unknown, not a crash" `Quick
      (fun () ->
        (* A dense pairwise-difference system over 14 positive symbols:
           Fourier-Motzkin elimination squares its row count past the
           internal budget. The query IS entailed (each s_i >= 1, so
           their sum exceeds 13), but the engine must give up with
           Unknown instead of raising Budget_exceeded or diverging. *)
        let n = 14 in
        let s i = Symdim.sym (Printf.sprintf "b%d" i) in
        let store = ref Constraint_store.empty in
        for i = 0 to n - 1 do
          store := Constraint_store.add_positive !store (Printf.sprintf "b%d" i)
        done;
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j then
              store :=
                Constraint_store.add_ge !store
                  (Symdim.add (Symdim.sub (s i) (s j)) (Symdim.of_int 5))
          done
        done;
        let total =
          List.fold_left Symdim.add Symdim.zero (List.init n s)
        in
        let query = Symdim.sub total (Symdim.of_int n) in
        check Alcotest.bool "budget fallback" true
          (Decide.implies_ge !store query = Decide.Unknown));
  ]

let suite =
  [
    ("symbolic.rat", rat_tests);
    ("symbolic.symdim", symdim_tests);
    ( "symbolic.symdim-render",
      [
        qtest
          (QCheck.Test.make ~name:"to_string writes what Format wrote"
             ~count:2000 arb_symdim (fun d ->
               let want = Fmt.str "%a" format_pp d in
               String.equal (Symdim.to_string d) want
               && String.equal (Fmt.str "%a" Symdim.pp d) want));
      ] );
    ("symbolic.decide", decide_tests);
    ("symbolic.decide-properties", decide_property_tests);
    ("symbolic.model-arithmetic", model_arithmetic_tests);
  ]

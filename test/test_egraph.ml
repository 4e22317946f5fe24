(* Tests for the e-graph engine: union-find, congruence closure,
   e-matching, rule application, saturation, and extraction. *)

open Entangle_symbolic
open Entangle_ir
open Entangle_egraph

let check = Alcotest.check
let sd = Symdim.of_int
let tensor name = Tensor.create ~name [ sd 4; sd 4 ]

let union_find_tests =
  [
    Alcotest.test_case "fresh singletons" `Quick (fun () ->
        let uf = Union_find.create () in
        let a = Union_find.fresh uf and b = Union_find.fresh uf in
        check Alcotest.bool "distinct" false (Id.equal (Union_find.find uf a) (Union_find.find uf b)));
    Alcotest.test_case "union then find" `Quick (fun () ->
        let uf = Union_find.create () in
        let ids = List.init 100 (fun _ -> Union_find.fresh uf) in
        List.iter (fun i -> ignore (Union_find.union uf (List.hd ids) i)) ids;
        let root = Union_find.find uf (List.hd ids) in
        check Alcotest.bool "all same" true
          (List.for_all (fun i -> Id.equal root (Union_find.find uf i)) ids));
    Alcotest.test_case "growth beyond initial capacity" `Quick (fun () ->
        let uf = Union_find.create () in
        let ids = List.init 1000 (fun _ -> Union_find.fresh uf) in
        check Alcotest.int "size" 1000 (Union_find.size uf);
        check Alcotest.bool "find works" true
          (Id.equal (Union_find.find uf (List.nth ids 999)) (List.nth ids 999)));
  ]

let congruence_tests =
  [
    Alcotest.test_case "hashconsing dedups" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let x = Egraph.add_op g Op.Neg [ a ] in
        let y = Egraph.add_op g Op.Neg [ a ] in
        check Alcotest.bool "same class" true (Egraph.equiv g x y));
    Alcotest.test_case "congruence after union" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let fa = Egraph.add_op g Op.Neg [ a ] in
        let fb = Egraph.add_op g Op.Neg [ b ] in
        check Alcotest.bool "initially distinct" false (Egraph.equiv g fa fb);
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        check Alcotest.bool "congruent" true (Egraph.equiv g fa fb));
    Alcotest.test_case "congruence cascades" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let fa = Egraph.add_op g Op.Neg [ a ] in
        let fb = Egraph.add_op g Op.Neg [ b ] in
        let gfa = Egraph.add_op g Op.Exp [ fa ] in
        let gfb = Egraph.add_op g Op.Exp [ fb ] in
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        check Alcotest.bool "two levels" true (Egraph.equiv g gfa gfb));
    Alcotest.test_case "shape analysis" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (Tensor.create ~name:"a" [ sd 2; sd 3 ]) in
        let b = Egraph.add_leaf g (Tensor.create ~name:"b" [ sd 3; sd 5 ]) in
        let m = Egraph.add_op g Op.Matmul [ a; b ] in
        check Alcotest.bool "matmul shape" true
          (match Egraph.shape_of g m with
          | Some sh -> Shape.equal_syntactic sh [ sd 2; sd 5 ]
          | None -> false));
    Alcotest.test_case "leaf_id and contains_leaf" `Quick (fun () ->
        let g = Egraph.create () in
        let t = tensor "t" in
        let id = Egraph.add_leaf g t in
        check Alcotest.bool "leaf_id" true
          (match Egraph.leaf_id g t with
          | Some c -> Id.equal (Egraph.find g c) (Egraph.find g id)
          | None -> false);
        check Alcotest.bool "contains" true
          (Egraph.contains_leaf g id (Tensor.equal t)));
    Alcotest.test_case "lookup does not insert" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let before = Egraph.num_nodes g in
        check Alcotest.bool "absent" true (Egraph.lookup g (Enode.op Op.Neg [ a ]) = None);
        check Alcotest.int "unchanged" before (Egraph.num_nodes g);
        let n = Egraph.add_op g Op.Neg [ a ] in
        check Alcotest.bool "present now" true
          (match Egraph.lookup g (Enode.op Op.Neg [ a ]) with
          | Some id -> Egraph.equiv g id n
          | None -> false));
    Alcotest.test_case "reachable" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let fa = Egraph.add_op g Op.Neg [ a ] in
        let _fb = Egraph.add_op g Op.Neg [ b ] in
        let r = Egraph.reachable g [ fa ] in
        check Alcotest.bool "a reachable" true (Id.Set.mem (Egraph.find g a) r);
        check Alcotest.bool "b not reachable" false (Id.Set.mem (Egraph.find g b) r));
  ]

let qtest = QCheck_alcotest.to_alcotest

(* Random unions preserve the invariant that canonical nodes of merged
   classes remain findable through the hashcons. *)
let congruence_property =
  qtest
    (QCheck.Test.make ~name:"random unions keep find idempotent" ~count:60
       QCheck.(list_of_size (Gen.int_range 0 20) (pair (int_range 0 9) (int_range 0 9)))
       (fun pairs ->
         let g = Egraph.create () in
         let leaves =
           Array.init 10 (fun i -> Egraph.add_leaf g (tensor (Printf.sprintf "t%d" i)))
         in
         let apps = Array.map (fun l -> Egraph.add_op g Op.Neg [ l ]) leaves in
         List.iter (fun (i, j) -> ignore (Egraph.union g leaves.(i) leaves.(j))) pairs;
         Egraph.rebuild g;
         (* find is idempotent and unioned leaves have congruent apps *)
         Array.for_all
           (fun id -> Id.equal (Egraph.find g id) (Egraph.find g (Egraph.find g id)))
           leaves
         && List.for_all
              (fun (i, j) -> Egraph.equiv g apps.(i) apps.(j))
              pairs))

let ematch_tests =
  [
    Alcotest.test_case "fixed op pattern" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let _ = Egraph.add_op g Op.Neg [ a ] in
        let pat = Pattern.p Op.Neg [ Pattern.v "x" ] in
        let matches = Ematch.match_all g pat in
        check Alcotest.int "one match" 1 (List.length matches);
        let _, subst = List.hd matches in
        check Alcotest.bool "binds x to a" true
          (Id.equal (Egraph.find g (Subst.var subst "x")) (Egraph.find g a)));
    Alcotest.test_case "family pattern binds operator" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let _ = Egraph.add_op g (Op.Concat { dim = 1 }) [ a; a ] in
        let pat = Pattern.fam "concat" ~bind:"cc" [ Pattern.v "x"; Pattern.v "y" ] in
        match Ematch.match_all g pat with
        | [ (_, subst) ] ->
            check Alcotest.bool "bound op" true
              (Op.equal (Subst.op subst "cc") (Op.Concat { dim = 1 }))
        | ms -> Alcotest.failf "expected 1 match, got %d" (List.length ms));
    Alcotest.test_case "nonlinear variables must agree" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let _ = Egraph.add_op g Op.Add [ a; a ] in
        let _ = Egraph.add_op g Op.Add [ a; b ] in
        let pat = Pattern.p Op.Add [ Pattern.v "x"; Pattern.v "x" ] in
        check Alcotest.int "only the aa node" 1
          (List.length (Ematch.match_all g pat)));
    Alcotest.test_case "arity must match" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let _ = Egraph.add_op g Op.Sum_n [ a; a; a ] in
        let pat = Pattern.p Op.Sum_n [ Pattern.v "x"; Pattern.v "y" ] in
        check Alcotest.int "no binary match on ternary sum" 0
          (List.length (Ematch.match_all g pat)));
    Alcotest.test_case "matching through class membership" `Quick (fun () ->
        (* A pattern matches a node contained anywhere in the class, not
           just the syntactic term that was queried. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let neg = Egraph.add_op g Op.Neg [ a ] in
        ignore (Egraph.union g neg a);
        Egraph.rebuild g;
        let outer = Egraph.add_op g Op.Exp [ a ] in
        let pat = Pattern.p Op.Exp [ Pattern.p Op.Neg [ Pattern.v "x" ] ] in
        let hits = List.filter (fun (c, _) -> Egraph.equiv g c outer) (Ematch.match_all g pat) in
        check Alcotest.bool "found" true (hits <> []));
    Alcotest.test_case "truncate at the budget boundary" `Quick (fun () ->
        let exact = List.init Ematch.per_class_budget Fun.id in
        check Alcotest.bool "exact fit returned physically" true
          (Ematch.truncate exact == exact);
        let over = List.init (Ematch.per_class_budget + 1) Fun.id in
        let t = Ematch.truncate over in
        check Alcotest.int "cut to budget" Ematch.per_class_budget
          (List.length t);
        check Alcotest.bool "prefix preserved in order" true
          (List.for_all2 ( = ) t (List.init Ematch.per_class_budget Fun.id));
        check Alcotest.bool "short list untouched" true
          (let l = [ 1; 2; 3 ] in
           Ematch.truncate l == l));
    Alcotest.test_case "delta matching: since -1 equals full" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let n = Egraph.add_op g Op.Neg [ a ] in
        let pat = Pattern.p Op.Neg [ Pattern.v "x" ] in
        check Alcotest.int "same count"
          (List.length (Ematch.match_class g pat n))
          (List.length
             (Ematch.match_class_delta g ~since:(-1) ~conditional:false pat n)));
    Alcotest.test_case "delta matching: clean classes yield nothing" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let n = Egraph.add_op g Op.Neg [ a ] in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        let pat = Pattern.p Op.Neg [ Pattern.v "x" ] in
        check Alcotest.int "no fresh matches" 0
          (List.length
             (Ematch.match_class_delta g ~since:gen ~conditional:false pat n)));
    Alcotest.test_case "delta matching: only nodes added since" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let k = Egraph.add_op g Op.Add [ a; b ] in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        let c = Egraph.add_leaf g (tensor "c") in
        let d = Egraph.add_leaf g (tensor "d") in
        let k2 = Egraph.add_op g Op.Add [ c; d ] in
        ignore (Egraph.union g k k2);
        Egraph.rebuild g;
        let pat = Pattern.p Op.Add [ Pattern.v "x"; Pattern.v "y" ] in
        check Alcotest.int "full sees both" 2
          (List.length (Ematch.match_class g pat k));
        check Alcotest.int "delta sees the new node only" 1
          (List.length
             (Ematch.match_class_delta g ~since:gen ~conditional:false pat k)));
    Alcotest.test_case "delta matching: merge below the root re-admits" `Quick
      (fun () ->
        let g = Egraph.create () in
        let d = Egraph.add_leaf g (tensor "d") in
        let e = Egraph.add_op g Op.Exp [ d ] in
        let a = Egraph.add_leaf g (tensor "a") in
        let na = Egraph.add_op g Op.Neg [ a ] in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        let pat = Pattern.p Op.Exp [ Pattern.p Op.Neg [ Pattern.v "x" ] ] in
        check Alcotest.int "no match yet" 0
          (List.length
             (Ematch.match_class_delta g ~since:gen ~conditional:false pat e));
        ignore (Egraph.union g d na);
        Egraph.rebuild g;
        check Alcotest.int "merge exposed the inner neg" 1
          (List.length
             (Ematch.match_class_delta g ~since:gen ~conditional:false pat e)));
    Alcotest.test_case "delta matching: variable bindings skip unless \
                        conditional" `Quick (fun () ->
        (* A structural change inside a variable-bound class yields the
           same substitution with the same syntactic outcome, so it is
           skipped — unless the rule's applier may inspect the bound
           class, which [conditional:true] declares. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let e = Egraph.add_op g Op.Exp [ Egraph.add_op g Op.Neg [ a ] ] in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        let c = Egraph.add_leaf g (tensor "c") in
        ignore (Egraph.union g a c);
        Egraph.rebuild g;
        let pat = Pattern.p Op.Exp [ Pattern.p Op.Neg [ Pattern.v "x" ] ] in
        check Alcotest.int "syntactic outcome unchanged: skipped" 0
          (List.length
             (Ematch.match_class_delta g ~since:gen ~conditional:false pat e));
        check Alcotest.int "conditional applier: re-admitted" 1
          (List.length
             (Ematch.match_class_delta g ~since:gen ~conditional:true pat e)));
    Alcotest.test_case "delta matching: a bare-variable root admits new \
                        classes" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        let b = Egraph.add_leaf g (tensor "b") in
        Egraph.rebuild g;
        let delta cls =
          List.length
            (Ematch.match_class_delta g ~since:gen ~conditional:false
               (Pattern.v "x") cls)
        in
        check Alcotest.int "new class" 1 (delta b);
        check Alcotest.int "untouched old class" 0 (delta a));
    Alcotest.test_case "instantiate insert vs check-only" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let subst =
          match Subst.bind_var Subst.empty "x" a with Some st -> st | None -> assert false
        in
        let rhs = Pattern.p Op.Exp [ Pattern.v "x" ] in
        check Alcotest.bool "check-only fails on absent" true
          (Ematch.instantiate ~mode:Ematch.Check_only g subst rhs = None);
        check Alcotest.bool "insert succeeds" true
          (Ematch.instantiate ~mode:Ematch.Insert g subst rhs <> None);
        check Alcotest.bool "check-only succeeds now" true
          (Ematch.instantiate ~mode:Ematch.Check_only g subst rhs <> None));
  ]

let incremental_tests =
  [
    Alcotest.test_case "cached counters match recomputation" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let na = Egraph.add_op g Op.Neg [ a ] in
        let _nb = Egraph.add_op g Op.Neg [ b ] in
        check Alcotest.int "after adds" (Egraph.Debug.recompute_num_nodes g)
          (Egraph.num_nodes g);
        ignore (Egraph.union g a b);
        ignore (Egraph.union g na a);
        check Alcotest.int "after unions" (Egraph.Debug.recompute_num_nodes g)
          (Egraph.num_nodes g);
        Egraph.rebuild g;
        (* Rebuild deduplicates the congruent neg nodes; the counter
           must track the removal. *)
        check Alcotest.int "after rebuild" (Egraph.Debug.recompute_num_nodes g)
          (Egraph.num_nodes g);
        check Alcotest.int "num_classes" (List.length (Egraph.class_ids g))
          (Egraph.num_classes g));
    Alcotest.test_case "generations advance and stamp dirty classes" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        check Alcotest.int "nothing dirty" 0
          (List.length (Egraph.classes_modified_since g gen));
        let b = Egraph.add_leaf g (tensor "b") in
        check Alcotest.bool "add advances the counter" true
          (Egraph.generation g > gen);
        let dirty = Egraph.classes_modified_since g gen in
        check Alcotest.bool "new class dirty" true
          (List.exists (Id.equal (Egraph.find g b)) dirty);
        check Alcotest.bool "old class clean" false
          (List.exists (Id.equal (Egraph.find g a)) dirty));
    Alcotest.test_case "union dirt propagates to ancestors on rebuild" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let n = Egraph.add_op g Op.Neg [ a ] in
        let e = Egraph.add_op g Op.Exp [ n ] in
        Egraph.rebuild g;
        let gen = Egraph.generation g in
        let c = Egraph.add_leaf g (tensor "c") in
        ignore (Egraph.union g a c);
        Egraph.rebuild g;
        let dirty = Egraph.classes_modified_since g gen in
        let mem id = List.exists (Id.equal (Egraph.find g id)) dirty in
        check Alcotest.bool "merged class dirty" true (mem a);
        check Alcotest.bool "parent dirty" true (mem n);
        check Alcotest.bool "grandparent dirty" true (mem e);
        (* Propagated dirt is modification-only: the ancestors' own node
           sets did not change. *)
        check Alcotest.bool "grandparent structurally clean" true
          (Egraph.structural_at g (Egraph.find g e) <= gen);
        check Alcotest.bool "stamps ordered" true
          (Egraph.structural_at g (Egraph.find g e)
          <= Egraph.modified_at g (Egraph.find g e)));
    Alcotest.test_case "family index tracks adds and unions" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let n = Egraph.add_op g Op.Neg [ a ] in
        let e = Egraph.add_op g Op.Exp [ a ] in
        let mem fam id =
          List.exists
            (Id.equal (Egraph.find g id))
            (Egraph.classes_with_family g fam)
        in
        check Alcotest.bool "neg indexed" true (mem "neg" n);
        check Alcotest.bool "exp indexed" true (mem "exp" e);
        check Alcotest.bool "leaf class has no neg" false (mem "neg" a);
        ignore (Egraph.union g n e);
        Egraph.rebuild g;
        (* The merged class carries both families under its root. *)
        check Alcotest.bool "merged root under neg" true (mem "neg" n);
        check Alcotest.bool "merged root under exp" true (mem "exp" n));
    Alcotest.test_case "the arity census tracks hash-consed nodes" `Quick
      (fun () ->
        let g = Egraph.create () in
        let l =
          Array.init 8 (fun i -> Egraph.add_leaf g (tensor (Fmt.str "l%d" i)))
        in
        let concat ids = Egraph.add_op g (Op.Concat { dim = 0 }) ids in
        let c01 = concat [ l.(0); l.(1) ] and c23 = concat [ l.(2); l.(3) ] in
        ignore (concat (Array.to_list l));
        let census () =
          List.map (Egraph.has_arity g "concat") [ 2; 3; 8 ]
        in
        check Alcotest.(list bool) "arities 2 and 8, not 3"
          [ true; false; true ] (census ());
        check Alcotest.bool "absent family" false (Egraph.has_arity g "sum" 2);
        (* Make the two pairs congruent: rebuild re-keys and dedups the
           concat nodes, and the census keeps both arities. *)
        ignore (Egraph.union g l.(0) l.(2));
        ignore (Egraph.union g l.(1) l.(3));
        Egraph.rebuild g;
        check Alcotest.bool "congruent concats merged" true
          (Egraph.equiv g c01 c23);
        check Alcotest.(list bool) "census after rebuild" [ true; false; true ]
          (census ()));
    Alcotest.test_case "union records dropped shape conflicts" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (Tensor.create ~name:"a" [ sd 4; sd 4 ]) in
        let b = Egraph.add_leaf g (Tensor.create ~name:"b" [ sd 2; sd 3 ]) in
        check Alcotest.int "none yet" 0
          (List.length (Egraph.Debug.shape_conflicts g));
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        match Egraph.Debug.shape_conflicts g with
        | [ (root, kept, dropped) ] ->
            check Alcotest.bool "root canonical" true
              (Id.equal (Egraph.find g root) (Egraph.find g a));
            let is44 s = Shape.equal_syntactic s [ sd 4; sd 4 ] in
            let is23 s = Shape.equal_syntactic s [ sd 2; sd 3 ] in
            check Alcotest.bool "both shapes recorded" true
              ((is44 kept && is23 dropped) || (is23 kept && is44 dropped))
        | l -> Alcotest.failf "expected 1 conflict, got %d" (List.length l));
  ]

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Runner.Merged -> Fmt.string ppf "Merged"
      | Runner.Saturated -> Fmt.string ppf "Saturated"
      | Runner.Unconfirmed -> Fmt.string ppf "Unconfirmed"
      | Runner.Tripped b -> Fmt.pf ppf "Tripped %s" (Runner.budget_name b))
    ( = )

let identity_elim =
  Rule.make "identity-elim"
    (Pattern.p Op.Identity [ Pattern.v "x" ])
    (Pattern.v "x")

let runner_tests =
  [
    Alcotest.test_case "saturation applies rule and counts hits" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let id = Egraph.add_op g Op.Identity [ a ] in
        let rule =
          Rule.make "identity-elim" (Pattern.p Op.Identity [ Pattern.v "x" ]) (Pattern.v "x")
        in
        let c = Entangle_trace.Collect.create () in
        let report =
          Runner.run ~sink:(Entangle_trace.Collect.sink c) g [ rule ]
        in
        check Alcotest.bool "saturated" true report.Runner.saturated;
        check Alcotest.bool "identity = a" true (Egraph.equiv g id a);
        (* Rule applications surface as rule-hit trace events now. *)
        let hits =
          List.fold_left
            (fun acc (ev : Entangle_trace.Event.t) ->
              if ev.name = "rule-hit" && ev.cat = "rule" then
                match List.assoc_opt "rule" ev.args with
                | Some (Entangle_trace.Event.Str "identity-elim") ->
                    acc
                    + (match List.assoc_opt "hits" ev.args with
                      | Some (Entangle_trace.Event.Int n) -> n
                      | _ -> 0)
                | _ -> acc
              else acc)
            0
            (Entangle_trace.Collect.events c)
        in
        check Alcotest.int "hit counted" 1 hits);
    Alcotest.test_case "node limit stops runaway rules" `Quick (fun () ->
        (* x -> neg(exp(x)) keeps creating fresh exp classes (the
           self-union of the rewrite never collapses the new subterm),
           so the runner must stop at the node cap. *)
        let g = Egraph.create () in
        let _ = Egraph.add_leaf g (tensor "a") in
        let rule =
          Rule.make "grow" (Pattern.v "x")
            (Pattern.p Op.Neg [ Pattern.p Op.Exp [ Pattern.v "x" ] ])
        in
        let limits = { Runner.default_limits with Runner.max_nodes = 50 } in
        let report = Runner.run ~limits g [ rule ] in
        check Alcotest.bool "not saturated" false report.Runner.saturated;
        check Alcotest.bool "bounded" true (report.Runner.nodes < 500));
    Alcotest.test_case "conditional rule with shape condition" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (Tensor.create ~name:"a" [ sd 2; sd 3 ]) in
        let sl =
          Egraph.add_op g (Op.Slice { dim = 0; start = sd 0; stop = sd 2 }) [ a ]
        in
        let rules =
          Entangle_lemmas.Lemma.rules
            [ List.find (fun (l : Entangle_lemmas.Lemma.t) ->
                  l.name = "slice-full-range")
                Entangle_lemmas.Registry.all ]
        in
        ignore (Runner.run g rules);
        check Alcotest.bool "full slice collapsed" true (Egraph.equiv g sl a));
    Alcotest.test_case "backoff bans an overflowing rule, cool-down finishes"
      `Quick (fun () ->
        let g = Egraph.create () in
        let leaves =
          List.init 3 (fun i -> Egraph.add_leaf g (tensor (Printf.sprintf "t%d" i)))
        in
        let ids = List.map (fun l -> Egraph.add_op g Op.Identity [ l ]) leaves in
        let rule =
          Rule.make "identity-elim"
            (Pattern.p Op.Identity [ Pattern.v "x" ])
            (Pattern.v "x")
        in
        (* Three matches against a budget of two: the rule overflows and
           gets banned; the cool-down pass must still reach the full
           saturated e-graph. *)
        let state =
          Runner.create_state ~match_limit:2 ~ban_length:1
            (Runner.index [ rule ])
        in
        let c = Entangle_trace.Collect.create () in
        let report =
          Runner.run ~sink:(Entangle_trace.Collect.sink c) ~state g [ rule ]
        in
        check Alcotest.bool "saturated" true report.Runner.saturated;
        List.iter2
          (fun id l ->
            check Alcotest.bool "identity collapsed" true (Egraph.equiv g id l))
          ids leaves;
        check Alcotest.bool "a ban was issued" true
          (List.exists
             (fun (ev : Entangle_trace.Event.t) -> ev.name = "rule-ban")
             (Entangle_trace.Collect.events c)));
    Alcotest.test_case "unconfirmed saturation defers the cool-down" `Quick
      (fun () ->
        (* A constrained rule is deferred to the cool-down, so a step
           without [confirm] hands back an unconfirmed candidate (zero
           unions) without firing it; a confirming step fires it in its
           cool-down, and the next one finds a genuine fixpoint. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let na = Egraph.add_op g Op.Neg [ a ] in
        let ea = Egraph.add_op g Op.Exp [ a ] in
        let rule =
          Rule.make ~constrained:true "ratify"
            (Pattern.p Op.Neg [ Pattern.v "x" ])
            (Pattern.p Op.Exp [ Pattern.v "x" ])
        in
        let state = Runner.create_state (Runner.index [ rule ]) in
        let step ~confirm =
          Runner.step ~limits:Runner.default_limits ~confirm state g
        in
        let r1 = step ~confirm:false in
        check outcome "candidate, not confirmed" Runner.Unconfirmed
          r1.Runner.outcome;
        check Alcotest.int "nothing applied" 0 r1.Runner.unions;
        check Alcotest.bool "classes still apart" false (Egraph.equiv g na ea);
        let r2 = step ~confirm:true in
        check outcome "the cool-down merged" Runner.Merged r2.Runner.outcome;
        check Alcotest.int "one union" 1 r2.Runner.unions;
        check Alcotest.bool "constrained rule fired" true
          (Egraph.equiv g na ea);
        check outcome "confirmed" Runner.Saturated
          (step ~confirm:true).Runner.outcome);
    Alcotest.test_case "a step merges, then finds the fixpoint" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let id = Egraph.add_op g Op.Identity [ a ] in
        let state = Runner.create_state (Runner.index [ identity_elim ]) in
        let step () =
          Runner.step ~limits:Runner.default_limits ~confirm:false state g
        in
        let r1 = step () in
        check outcome "merged" Runner.Merged r1.Runner.outcome;
        check Alcotest.int "one union" 1 r1.Runner.unions;
        check Alcotest.bool "identity = a" true (Egraph.equiv g id a);
        let r2 = step () in
        check outcome "saturated" Runner.Saturated r2.Runner.outcome;
        check Alcotest.int "no union" 0 r2.Runner.unions);
    Alcotest.test_case "a budget trips a step before its pass" `Quick
      (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let id = Egraph.add_op g Op.Identity [ a ] in
        let state = Runner.create_state (Runner.index [ identity_elim ]) in
        let c = Entangle_trace.Collect.create () in
        let step ?deadline limits =
          Runner.step ~sink:(Entangle_trace.Collect.sink c) ?deadline ~limits
            ~confirm:true state g
        in
        let d = Runner.default_limits in
        List.iter
          (fun (budget, r) ->
            check outcome (Runner.budget_name budget) (Runner.Tripped budget)
              r.Runner.outcome;
            check Alcotest.int "no match" 0 r.Runner.matches)
          [
            (Runner.Nodes, step { d with Runner.max_nodes = 1 });
            (Runner.Classes, step { d with Runner.max_classes = 1 });
            (Runner.Deadline, step ~deadline:0. d);
          ];
        check Alcotest.bool "nothing merged" false (Egraph.equiv g id a);
        check Alcotest.int "no event" 0
          (List.length (Entangle_trace.Collect.events c)));
    Alcotest.test_case "a budget trips a step after a pass that merged nothing"
      `Quick (fun () ->
        (* [grow] adds a node without asserting an equation, so the pass
           merges nothing but crosses the node budget; the deferred
           constrained rule leaves a candidate the budget stops the step
           from confirming. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        ignore (Egraph.add_op g Op.Neg [ a ]);
        let neg = Pattern.p Op.Neg [ Pattern.v "x" ] in
        let grow =
          Rule.make_dyn "grow" neg (fun g cls _ ->
              ignore (Egraph.add_op g Op.Exp [ cls ]);
              [])
        in
        let ratify =
          Rule.make ~constrained:true "ratify" neg
            (Pattern.p Op.Exp [ Pattern.v "x" ])
        in
        let state = Runner.create_state (Runner.index [ grow; ratify ]) in
        let c = Entangle_trace.Collect.create () in
        let limits =
          { Runner.default_limits with Runner.max_nodes = Egraph.num_nodes g }
        in
        let r =
          Runner.step ~sink:(Entangle_trace.Collect.sink c) ~limits
            ~confirm:true state g
        in
        check outcome "nodes" (Runner.Tripped Runner.Nodes) r.Runner.outcome;
        check Alcotest.int "the pass matched" 1 r.Runner.matches;
        check Alcotest.int "and merged nothing" 0 r.Runner.unions;
        let named n =
          List.length
            (List.filter
               (fun (ev : Entangle_trace.Event.t) -> ev.name = n)
               (Entangle_trace.Collect.events c))
        in
        check Alcotest.int "no cool-down" 0 (named "cooldown");
        check Alcotest.int "one iteration span, begun and ended" 2
          (named "iteration"));
    Alcotest.test_case "the deadline stops a pass between its rules" `Quick
      (fun () ->
        (* The first rule's applier sleeps past the deadline and asserts
           nothing; the second would merge [identity a] with [a]. The
           step reads the clock after the first rule, which did work,
           and trips without running the second. Reading the clock only
           between passes, it ran both and merged. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let id = Egraph.add_op g Op.Identity [ a ] in
        let slow =
          Rule.make_dyn "slow"
            (Pattern.p Op.Identity [ Pattern.v "x" ])
            (fun _ _ _ ->
              Unix.sleepf 0.05;
              [])
        in
        let state =
          Runner.create_state (Runner.index [ slow; identity_elim ])
        in
        let r =
          Runner.step
            ~deadline:(Unix.gettimeofday () +. 0.01)
            ~limits:Runner.default_limits ~confirm:true state g
        in
        check outcome "deadline" (Runner.Tripped Runner.Deadline)
          r.Runner.outcome;
        check Alcotest.int "only the first rule matched" 1 r.Runner.matches;
        check Alcotest.bool "the second rule did not run" false
          (Egraph.equiv g id a));
    Alcotest.test_case "a state runs only the rules it indexes" `Quick
      (fun () ->
        let g = Egraph.create () in
        ignore (Egraph.add_op g Op.Neg [ Egraph.add_leaf g (tensor "a") ]);
        let neg = Pattern.p Op.Neg [ Pattern.v "x" ] in
        let r1 = Rule.make "r1" neg (Pattern.v "x") in
        let r2 = Rule.make "r2" neg (Pattern.v "x") in
        let state = Runner.create_state (Runner.index [ r1 ]) in
        Alcotest.check_raises "another rule list"
          (Invalid_argument "Runner.run: the state indexes another rule list")
          (fun () -> ignore (Runner.run ~state g [ r2 ]));
        check Alcotest.bool "an equal list of the same rules runs" true
          (Runner.run ~state g [ r1 ]).Runner.saturated);
  ]

(* The reference the runner is checked against: apply every match of
   every rule in every class, union, rebuild, and repeat until nothing
   merges. Syntactic rules only. *)
let naive_saturate g rules =
  let rec go () =
    let matches =
      List.concat_map
        (fun (rule : Rule.t) ->
          match rule.Rule.applier with
          | Rule.Syntactic rhs ->
              List.map (fun m -> (m, rhs)) (Ematch.match_all g rule.Rule.lhs)
          | Rule.Conditional _ -> invalid_arg "naive_saturate")
        rules
    in
    let merged =
      List.fold_left
        (fun merged ((cls, subst), rhs) ->
          match Ematch.instantiate ~mode:Ematch.Insert g subst rhs with
          | Some id -> Egraph.union g cls id || merged
          | None -> merged)
        false matches
    in
    Egraph.rebuild g;
    if merged then go ()
  in
  go ()

(* The runner's schedule (incremental matching, backoff bans, the
   cool-down) must reach the same equivalence closure as naive
   saturation. Random unions seed diverse e-graph shapes; a tight match
   budget forces actual bans so the cool-down path is exercised too. *)
let scheduler_equivalence_property =
  qtest
    (QCheck.Test.make ~name:"schedulers reach identical equivalences" ~count:40
       QCheck.(
         list_of_size (Gen.int_range 0 15)
           (pair (int_range 0 5) (int_range 0 5)))
       (fun pairs ->
         let rules =
           [
             Rule.make "double-neg"
               (Pattern.p Op.Neg [ Pattern.p Op.Neg [ Pattern.v "x" ] ])
               (Pattern.v "x");
             Rule.make "identity-elim"
               (Pattern.p Op.Identity [ Pattern.v "x" ])
               (Pattern.v "x");
           ]
         in
         let build saturate =
           let g = Egraph.create () in
           let leaves =
             Array.init 6 (fun i ->
                 Egraph.add_leaf g (tensor (Printf.sprintf "t%d" i)))
           in
           let wrap f = Array.to_list (Array.map f leaves) in
           let terms =
             Array.to_list leaves
             @ wrap (fun l -> Egraph.add_op g Op.Neg [ l ])
             @ wrap (fun l ->
                   Egraph.add_op g Op.Neg [ Egraph.add_op g Op.Neg [ l ] ])
             @ wrap (fun l -> Egraph.add_op g Op.Identity [ l ])
           in
           List.iter
             (fun (i, j) -> ignore (Egraph.union g leaves.(i) leaves.(j)))
             pairs;
           Egraph.rebuild g;
           saturate g;
           (* Terms were created in the same order in every graph, so
              positions correspond across saturators. *)
           List.map
             (fun x -> List.map (fun y -> Egraph.equiv g x y) terms)
             terms
         in
         let reference = build (fun g -> naive_saturate g rules) in
         let runner state g = ignore (Runner.run ~state:(state ()) g rules) in
         List.for_all
           (fun state -> build (runner state) = reference)
           [
             (fun () -> Runner.create_state (Runner.index rules));
             (fun () ->
               Runner.create_state ~match_limit:4 ~ban_length:1
                 (Runner.index rules));
           ]))

let extract_tests =
  [
    Alcotest.test_case "best picks smallest member" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let deep = Egraph.add_op g Op.Neg [ Egraph.add_op g Op.Neg [ a ] ] in
        ignore (Egraph.union g deep a);
        Egraph.rebuild g;
        match Extract.best g deep with
        | Some e -> check Alcotest.int "leaf wins" 0 (Expr.size e)
        | None -> Alcotest.fail "no extraction");
    Alcotest.test_case "best_clean rejects dirty-only classes" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let m = Egraph.add_op g Op.Matmul [ a; b ] in
        check Alcotest.bool "no clean form" true
          (Extract.best_clean g ~leaf_ok:(fun _ -> true) m = None));
    Alcotest.test_case "best_clean respects leaf filter" `Quick (fun () ->
        let g = Egraph.create () in
        let ta = tensor "a" and tb = tensor "b" in
        let a = Egraph.add_leaf g ta in
        let b = Egraph.add_leaf g tb in
        ignore (Egraph.union g a b);
        Egraph.rebuild g;
        (match Extract.best_clean g ~leaf_ok:(Tensor.equal tb) a with
        | Some (Expr.Leaf t) -> check Alcotest.bool "picked b" true (Tensor.equal t tb)
        | _ -> Alcotest.fail "expected leaf b");
        check Alcotest.bool "empty filter" true
          (Extract.best_clean g ~leaf_ok:(fun _ -> false) a = None));
    Alcotest.test_case "best_filtered excludes operators" `Quick (fun () ->
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let b = Egraph.add_leaf g (tensor "b") in
        let s = Egraph.add_op g Op.Sum_n [ a; b ] in
        let c = Egraph.add_op g (Op.Concat { dim = 0 }) [ a; b ] in
        ignore (Egraph.union g s c);
        Egraph.rebuild g;
        match
          Extract.best_filtered g
            ~node_ok:(fun op -> Op.is_clean op && not (Op.equal op Op.Sum_n))
            ~leaf_ok:(fun _ -> true) s
        with
        | Some (Expr.App (op, _)) ->
            check Alcotest.bool "picked concat" true (Op.equal op (Op.Concat { dim = 0 }))
        | _ -> Alcotest.fail "expected concat extraction");
    Alcotest.test_case "extraction avoids cycles" `Quick (fun () ->
        (* a = neg(a) creates a cyclic class; extraction must still
           terminate and return the leaf. *)
        let g = Egraph.create () in
        let a = Egraph.add_leaf g (tensor "a") in
        let na = Egraph.add_op g Op.Neg [ a ] in
        ignore (Egraph.union g na a);
        Egraph.rebuild g;
        match Extract.best g a with
        | Some e -> check Alcotest.int "leaf" 0 (Expr.size e)
        | None -> Alcotest.fail "no extraction");
    Alcotest.test_case "costs cover only the root's reachable classes" `Quick
      (fun () ->
        (* exp(b) is unreachable from neg(a), so the filters must never
           be consulted about it. *)
        let g = Egraph.create () in
        let tb = tensor "b" in
        let root = Egraph.add_op g Op.Neg [ Egraph.add_leaf g (tensor "a") ] in
        ignore (Egraph.add_op g Op.Exp [ Egraph.add_leaf g tb ]);
        let ops = ref [] and leaves = ref [] in
        let node_ok op = ops := op :: !ops; true in
        let leaf_ok t = leaves := t :: !leaves; true in
        (match Extract.best_filtered g ~node_ok ~leaf_ok root with
        | Some e -> check Alcotest.int "neg(a)" 1 (Expr.size e)
        | None -> Alcotest.fail "no extraction");
        check Alcotest.bool "neg asked" true (List.exists (Op.equal Op.Neg) !ops);
        check Alcotest.bool "exp never asked" false
          (List.exists (Op.equal Op.Exp) !ops);
        check Alcotest.bool "b never asked" false
          (List.exists (Tensor.equal tb) !leaves));
  ]

(* The whole-graph reference extractor: relax every class of the
   e-graph until nothing changes, then rebuild the cheapest term with
   the same (cost, Enode.compare) tie-break as [Extract]. *)
let reference_extract g ~node_ok ~leaf_ok root =
  let inf = max_int / 4 in
  let cost = Id.Tbl.create 64 in
  let get id =
    Option.value (Id.Tbl.find_opt cost (Egraph.find g id)) ~default:inf
  in
  let node_cost n =
    match Enode.sym n with
    | Enode.Leaf t -> if leaf_ok t then 0 else inf
    | Enode.Op op when not (node_ok op) -> inf
    | Enode.Op _ ->
        List.fold_left
          (fun acc c ->
            let k = get c in
            if acc >= inf || k >= inf then inf else acc + k)
          1 (Enode.children n)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun cls ->
        let best =
          List.fold_left
            (fun acc n -> min acc (node_cost n))
            inf (Egraph.nodes_of g cls)
        in
        if best < get cls then begin
          Id.Tbl.replace cost cls best;
          changed := true
        end)
      (Egraph.class_ids g)
  done;
  (* A finite class cost guarantees finite children all the way down. *)
  let rec build id =
    let candidates =
      List.filter_map
        (fun n ->
          let c = node_cost n in
          if c >= inf then None else Some (c, n))
        (Egraph.nodes_of g id)
    in
    let by_cost (ca, na) (cb, nb) =
      match Int.compare ca cb with 0 -> Enode.compare na nb | c -> c
    in
    let n = snd (List.hd (List.sort by_cost candidates)) in
    match Enode.sym n with
    | Enode.Leaf t -> Expr.leaf t
    | Enode.Op op -> Expr.app op (List.map build (Enode.children n))
  in
  if get root >= inf then None else Some (build root)

type step =
  | Add_leaf of int
  | Add_unary of int * int
  | Add_binary of int * int * int
  | Merge of int * int

let unary_ops = [| Op.Neg; Op.Exp; Op.Identity; Op.All_reduce |]
let binary_ops = [| Op.Add; Op.Sum_n; Op.Concat { dim = 0 } |]
let all_ops = Array.append unary_ops binary_ops
let leaf_tensors = Array.init 4 (fun i -> tensor (Printf.sprintf "x%d" i))

let pp_step ppf = function
  | Add_leaf i -> Fmt.pf ppf "leaf %d" i
  | Add_unary (o, c) -> Fmt.pf ppf "%a(#%d)" Op.pp unary_ops.(o) c
  | Add_binary (o, a, b) -> Fmt.pf ppf "%a(#%d, #%d)" Op.pp binary_ops.(o) a b
  | Merge (a, b) -> Fmt.pf ppf "union #%d #%d" a b

(* Class operands index the classes created so far (modulo their
   count), so every step is valid and unions freely close cycles. *)
let step_gen =
  QCheck.Gen.(
    let c = int_bound 30 in
    frequency
      [
        (2, map (fun i -> Add_leaf i) (int_bound 3));
        (3, map2 (fun o a -> Add_unary (o, a)) (int_bound 3) c);
        (3, map3 (fun o a b -> Add_binary (o, a, b)) (int_bound 2) c c);
        (2, map2 (fun a b -> Merge (a, b)) c c);
      ])

let build_random_egraph steps =
  let g = Egraph.create () in
  let ids = ref [| Egraph.add_leaf g leaf_tensors.(0) |] in
  let cls i = !ids.(i mod Array.length !ids) in
  let push id = ids := Array.append !ids [| id |] in
  List.iter
    (function
      | Add_leaf i -> push (Egraph.add_leaf g leaf_tensors.(i))
      | Add_unary (o, a) -> push (Egraph.add_op g unary_ops.(o) [ cls a ])
      | Add_binary (o, a, b) ->
          push (Egraph.add_op g binary_ops.(o) [ cls a; cls b ])
      | Merge (a, b) -> ignore (Egraph.union g (cls a) (cls b)))
    steps;
  Egraph.rebuild g;
  g

(* Restricting the cost fixpoint to the root's reachable classes must
   not change any extraction: for every class as root, [best],
   [best_clean] and [best_filtered] under random filters agree with
   the whole-graph reference. *)
let extract_reference_property =
  qtest
    (QCheck.Test.make ~name:"reachable-only extraction equals whole-graph"
       ~count:200
       QCheck.(
         triple
           (make
              ~print:(Fmt.str "%a" (Fmt.Dump.list pp_step))
              Gen.(list_size (int_range 1 40) step_gen))
           (int_bound 15) (int_bound 127))
       (fun (steps, leaf_mask, op_mask) ->
         let g = build_random_egraph steps in
         let index eq arr x =
           let rec go i = if eq arr.(i) x then i else go (i + 1) in
           go 0
         in
         let leaf_ok t =
           leaf_mask land (1 lsl index Tensor.equal leaf_tensors t) <> 0
         in
         let node_ok op = op_mask land (1 lsl index Op.equal all_ops op) <> 0 in
         let same = Option.equal Expr.equal in
         let any _ = true in
         List.for_all
           (fun root ->
             same (Extract.best g root)
               (reference_extract g ~node_ok:any ~leaf_ok:any root)
             && same
                  (Extract.best_clean g ~leaf_ok root)
                  (reference_extract g ~node_ok:Op.is_clean ~leaf_ok root)
             && same
                  (Extract.best_filtered g ~node_ok ~leaf_ok root)
                  (reference_extract g ~node_ok ~leaf_ok root))
           (Egraph.class_ids g)))

let suite =
  [
    ("egraph.union-find", union_find_tests);
    ("egraph.congruence", congruence_tests @ [ congruence_property ]);
    ("egraph.ematch", ematch_tests);
    ("egraph.incremental", incremental_tests);
    ("egraph.runner", runner_tests @ [ scheduler_equivalence_property ]);
    ("egraph.extract", extract_tests @ [ extract_reference_property ]);
  ]

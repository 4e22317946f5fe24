(* Lemma soundness tests.

   Every scenario states two expressions over concrete tensors that a
   lemma (or a short chain of lemmas) should identify. The harness
   checks two things:

   1. e-graph equivalence: within the saturation budget, rewriting with
      the full corpus puts the two expressions in the same class;
   2. semantic equality: both expressions evaluate to the same values on
      several random concrete inputs, via the reference interpreter —
      so a lemma that wrongly identifies two terms fails even if its
      rewrite is internally consistent.

   Together these are the "validate the lemmas" step the paper performs
   on its Rust lemma corpus. *)

open Entangle_symbolic
open Entangle_ir
open Entangle_egraph

let sd = Symdim.of_int
let all_rules = Entangle_lemmas.Lemma.rules Entangle_lemmas.Registry.all
let t ?dtype name dims = Tensor.create ?dtype ~name (List.map sd dims)
let leaf = Expr.leaf
let app = Expr.app
let concat dim args = app (Op.Concat { dim }) args
let slice dim start stop =
  app (Op.Slice { dim; start = sd start; stop = sd stop })
let env = Interp.env_of_list []

let eval_on seed expr =
  let st = Random.State.make [| seed |] in
  let values = Hashtbl.create 8 in
  let lookup tensor =
    let key = (Tensor.id tensor :> int) in
    match Hashtbl.find_opt values key with
    | Some v -> v
    | None ->
        let dims = Shape.concrete (fun _ -> 0) (Tensor.shape tensor) in
        let v =
          if Dtype.is_integer (Tensor.dtype tensor) then
            Ndarray.random_ints st ~hi:4 dims
          else Ndarray.random st dims
        in
        Hashtbl.replace values key v;
        v
  in
  (* One shared table per seed so both expressions see the same leaves:
     the caller evaluates both under one call. *)
  fun e -> Interp.eval_expr env lookup (Option.value e ~default:expr)

let scenario_limits =
  { Runner.default_limits with Runner.max_iterations = 12; max_nodes = 4000 }

(* The run [Runner.run ~limits:scenario_limits g all_rules] would make,
   stopping as soon as [a] and [b] share a class. Classes only ever
   merge, so stopping there gives the same verdict as spending the whole
   budget; it spares scenarios like "mean of replicas collapses", whose
   sums keep the e-graph growing for the remaining iterations, over a
   minute of matching. *)
let saturate_until_equiv ~rules g a b =
  let state = Runner.create_state (Runner.index rules) in
  let rec go i =
    if i < scenario_limits.Runner.max_iterations && not (Egraph.equiv g a b)
    then
      match
        (Runner.step ~limits:scenario_limits ~confirm:true state g)
          .Runner.outcome
      with
      | Runner.Merged -> go (i + 1)
      | Runner.Saturated | Runner.Unconfirmed | Runner.Tripped _ -> ()
  in
  go 0

let scenario ?(skip_eval = false) ?(rules = all_rules) name expr_a expr_b =
  Alcotest.test_case name `Quick (fun () ->
      (* e-graph equivalence *)
      let g = Egraph.create () in
      let a = Egraph.add_expr g expr_a in
      let b = Egraph.add_expr g expr_b in
      saturate_until_equiv ~rules g a b;
      if not (Egraph.equiv g a b) then
        Alcotest.failf "expressions not identified:@.  %a@.  %a" Expr.pp expr_a
          Expr.pp expr_b;
      (* semantic equality on random data *)
      if not skip_eval then
        List.iter
          (fun seed ->
            let ev = eval_on seed expr_a in
            let va = ev (Some expr_a) and vb = ev (Some expr_b) in
            if not (Ndarray.approx_equal ~tol:1e-4 va vb) then
              Alcotest.failf "semantic mismatch (seed %d, diff %g) for %s" seed
                (Ndarray.max_abs_diff va vb) name)
          [ 1; 2; 3 ])

let negative name expr_a expr_b =
  Alcotest.test_case name `Quick (fun () ->
      let g = Egraph.create () in
      let a = Egraph.add_expr g expr_a in
      let b = Egraph.add_expr g expr_b in
      ignore (Runner.run ~limits:scenario_limits g all_rules);
      if Egraph.equiv g a b then
        Alcotest.failf "unsound identification:@.  %a@.  %a" Expr.pp expr_a
          Expr.pp expr_b)

(* --- matmul block lemmas ------------------------------------------------ *)

let matmul_tests =
  let a1 = t "a1" [ 3; 2 ] and a2 = t "a2" [ 3; 2 ] in
  let b1 = t "b1" [ 2; 5 ] and b2 = t "b2" [ 2; 5 ] in
  let c1 = t "c1" [ 4; 2 ] and c2 = t "c2" [ 4; 3 ] in
  let x = t "x" [ 3; 4 ] and y = t "y" [ 4; 5 ] in
  let a3 = t "a3" [ 3; 2 ] and b3 = t "b3" [ 2; 5 ] in
  let mm p q = app Op.Matmul [ p; q ] in
  [
    scenario "matmul-row-split"
      (mm (concat 0 [ leaf a1; leaf a2 ]) (leaf b1))
      (concat 0 [ mm (leaf a1) (leaf b1); mm (leaf a2) (leaf b1) ]);
    scenario "matmul-col-split"
      (mm (leaf x) (concat 1 [ leaf c1; leaf c2 ]))
      (concat 1 [ mm (leaf x) (leaf c1); mm (leaf x) (leaf c2) ]);
    scenario "matmul-contraction-split"
      (mm (concat 1 [ leaf a1; leaf a2 ]) (concat 0 [ leaf b1; leaf b2 ]))
      (app Op.Sum_n [ mm (leaf a1) (leaf b1); mm (leaf a2) (leaf b2) ]);
    scenario "matmul-contraction-split arity 3"
      (mm (concat 1 [ leaf a1; leaf a2; leaf a3 ])
         (concat 0 [ leaf b1; leaf b2; leaf b3 ]))
      (app Op.Sum_n
         [ mm (leaf a1) (leaf b1); mm (leaf a2) (leaf b2); mm (leaf a3) (leaf b3) ]);
    scenario "matmul-transpose"
      (app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ mm (leaf x) (leaf y) ])
      (mm
         (app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf y ])
         (app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf x ]));
    negative "diagonal blocks do not equal the full product"
      (mm (concat 0 [ leaf a1; leaf a2 ]) (concat 0 [ leaf b1; leaf b2 ]))
      (concat 0 [ mm (leaf a1) (leaf b1); mm (leaf a2) (leaf b2) ]);
  ]

(* --- rearrangement lemmas ----------------------------------------------- *)

let rearrange_tests =
  let a = t "a" [ 4; 6 ] and b = t "b" [ 4; 6 ] in
  let x = t "x" [ 8; 3 ] in
  [
    scenario "slice-of-concat inside first child"
      (slice 0 1 3 [ concat 0 [ leaf a; leaf b ] ])
      (slice 0 1 3 [ leaf a ]);
    scenario "slice-of-concat inside second child"
      (slice 0 5 7 [ concat 0 [ leaf a; leaf b ] ])
      (slice 0 1 3 [ leaf b ]);
    scenario "slice-of-concat spanning"
      (slice 0 2 6 [ concat 0 [ leaf a; leaf b ] ])
      (concat 0 [ slice 0 2 4 [ leaf a ]; slice 0 0 2 [ leaf b ] ]);
    scenario "slice-of-concat cross axis (Listing 4)"
      (slice 1 1 4 [ concat 0 [ leaf a; leaf b ] ])
      (concat 0 [ slice 1 1 4 [ leaf a ]; slice 1 1 4 [ leaf b ] ]);
    scenario "slice-of-slice composes"
      (slice 0 1 3 [ slice 0 2 7 [ leaf x ] ])
      (slice 0 3 5 [ leaf x ]);
    scenario "slice-full-range is identity" (slice 0 0 8 [ leaf x ]) (leaf x);
    scenario "slices-cover reassembles"
      (concat 0 [ slice 0 0 4 [ leaf x ]; slice 0 4 8 [ leaf x ] ])
      (leaf x);
    scenario "slices-cover three chunks"
      (concat 0
         [ slice 0 0 2 [ leaf x ]; slice 0 2 5 [ leaf x ]; slice 0 5 8 [ leaf x ] ])
      (leaf x);
    negative "gapped slices do not cover"
      (concat 0 [ slice 0 0 3 [ leaf x ]; slice 0 4 8 [ leaf x ] ])
      (leaf x);
    (let c = t "c" [ 4; 6 ] in
     scenario "concat-flatten"
       (concat 0 [ concat 0 [ leaf a; leaf b ]; leaf c ])
       (concat 0 [ leaf a; leaf b; leaf c ]));
    scenario "transpose involution"
      (app (Op.Transpose { dim0 = 0; dim1 = 1 })
         [ app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf a ] ])
      (leaf a);
    scenario "transpose of concat swaps axis"
      (app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ concat 0 [ leaf a; leaf b ] ])
      (concat 1
         [
           app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf a ];
           app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf b ];
         ]);
    scenario "slice-of-pad recovers interior"
      (slice 0 2 6
         [ app (Op.Pad { dim = 0; before = sd 2; after = sd 3 }) [ leaf a ] ])
      (leaf a);
    scenario "transpose commutes with slice"
      (slice 0 1 3
         [ app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf a ] ])
      (app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ slice 1 1 3 [ leaf a ] ]);
    scenario "transpose commutes with pad"
      (app (Op.Transpose { dim0 = 0; dim1 = 1 })
         [ app (Op.Pad { dim = 0; before = sd 1; after = sd 2 }) [ leaf a ] ])
      (app (Op.Pad { dim = 1; before = sd 1; after = sd 2 })
         [ app (Op.Transpose { dim0 = 0; dim1 = 1 }) [ leaf a ] ]);
    scenario "pads along the same axis compose"
      (app (Op.Pad { dim = 0; before = sd 1; after = sd 0 })
         [ app (Op.Pad { dim = 0; before = sd 1; after = sd 2 }) [ leaf a ] ])
      (app (Op.Pad { dim = 0; before = sd 2; after = sd 2 }) [ leaf a ]);
    scenario "identity elimination" (app Op.Identity [ leaf a ]) (leaf a);
    scenario "reshape of reshape"
      (app (Op.Reshape { shape = [ sd 24 ] })
         [ app (Op.Reshape { shape = [ sd 2; sd 12 ] }) [ leaf a ] ])
      (app (Op.Reshape { shape = [ sd 24 ] }) [ leaf a ]);
    scenario "reshape to same shape is identity"
      (app (Op.Reshape { shape = [ sd 4; sd 6 ] }) [ leaf a ])
      (leaf a);
  ]

(* --- elementwise lemmas --------------------------------------------------- *)

let ewise_tests =
  let a = t "a" [ 3; 4 ] and b = t "b" [ 3; 4 ] in
  let c = t "c" [ 3; 4 ] and d = t "d" [ 3; 4 ] in
  let g2 = t "g" [ 3; 1 ] in
  [
    scenario "gelu distributes over concat"
      (app Op.Gelu [ concat 0 [ leaf a; leaf b ] ])
      (concat 0 [ app Op.Gelu [ leaf a ]; app Op.Gelu [ leaf b ] ]);
    scenario "silu commutes with slice"
      (app Op.Silu [ slice 0 1 3 [ leaf a ] ])
      (slice 0 1 3 [ app Op.Silu [ leaf a ] ]);
    scenario "add distributes over matching concats"
      (app Op.Add [ concat 0 [ leaf a; leaf b ]; concat 0 [ leaf c; leaf d ] ])
      (concat 0 [ app Op.Add [ leaf a; leaf c ]; app Op.Add [ leaf b; leaf d ] ]);
    scenario "mul with broadcast operand"
      (app Op.Mul [ concat 1 [ leaf a; leaf b ]; leaf g2 ])
      (concat 1 [ app Op.Mul [ leaf a; leaf g2 ]; app Op.Mul [ leaf b; leaf g2 ] ]);
    scenario "sub via scale"
      (app Op.Sub [ leaf a; leaf b ])
      (app Op.Add [ leaf a; app (Op.Scale Rat.minus_one) [ leaf b ] ]);
    scenario "scale distributes over concat"
      (app (Op.Scale (Rat.make 1 2)) [ concat 0 [ leaf a; leaf b ] ])
      (concat 0
         [ app (Op.Scale (Rat.make 1 2)) [ leaf a ];
           app (Op.Scale (Rat.make 1 2)) [ leaf b ] ]);
    negative "different unary functions stay distinct"
      (app Op.Gelu [ leaf a ])
      (app Op.Silu [ leaf a ]);
  ]

(* --- scale and sum algebra ------------------------------------------------ *)

let scalesum_tests =
  let a = t "a" [ 3; 4 ] and b = t "b" [ 3; 4 ] in
  let c = t "c" [ 3; 4 ] and d = t "d" [ 3; 4 ] in
  [
    scenario "scale merge and unit"
      (app (Op.Scale (Rat.make 2 1)) [ app (Op.Scale (Rat.make 1 2)) [ leaf a ] ])
      (leaf a);
    scenario "scale distributes over sum"
      (app (Op.Scale (Rat.make 1 3)) [ app Op.Sum_n [ leaf a; leaf b ] ])
      (app Op.Sum_n
         [ app (Op.Scale (Rat.make 1 3)) [ leaf a ];
           app (Op.Scale (Rat.make 1 3)) [ leaf b ] ]);
    (let p = t "p" [ 3; 2 ] and q = t "q" [ 2; 4 ] in
     scenario "scale commutes with matmul"
       (app Op.Matmul [ app (Op.Scale (Rat.make 3 1)) [ leaf p ]; leaf q ])
       (app (Op.Scale (Rat.make 3 1)) [ app Op.Matmul [ leaf p; leaf q ] ]));
    scenario "add is binary sum"
      (app Op.Add [ leaf a; leaf b ])
      (app Op.Sum_n [ leaf a; leaf b ]);
    scenario "sum flatten"
      (app Op.Sum_n [ app Op.Sum_n [ leaf a; leaf b ]; app Op.Sum_n [ leaf c; leaf d ] ])
      (app Op.Sum_n [ leaf a; leaf b; leaf c; leaf d ]);
    scenario "sum assoc"
      (app Op.Sum_n [ app Op.Sum_n [ leaf a; leaf b ]; leaf c ])
      (app Op.Sum_n [ leaf a; leaf b; leaf c ]);
    scenario "sum of replicas is a scale"
      (app Op.Sum_n [ leaf a; leaf a ])
      (app (Op.Scale (Rat.of_int 2)) [ leaf a ]);
    scenario "mean of replicas collapses"
      (app Op.Sum_n
         [ app (Op.Scale (Rat.make 1 2)) [ leaf a ];
           app (Op.Scale (Rat.make 1 2)) [ leaf a ] ])
      (leaf a);
    negative "sum of distinct tensors is not a scale"
      (app Op.Sum_n [ leaf a; leaf b ])
      (app (Op.Scale (Rat.of_int 2)) [ leaf a ]);
  ]

(* --- reductions, softmax, norms ------------------------------------------ *)

let reduce_nn_tests =
  let a = t "a" [ 3; 4 ] and b = t "b" [ 3; 4 ] in
  let w = t "w" [ 4 ] and bias = t "bias" [ 4 ] in
  [
    scenario "reduce_sum along concat axis"
      (app (Op.Reduce_sum { dim = 0; keepdim = false })
         [ concat 0 [ leaf a; leaf b ] ])
      (app Op.Sum_n
         [ app (Op.Reduce_sum { dim = 0; keepdim = false }) [ leaf a ];
           app (Op.Reduce_sum { dim = 0; keepdim = false }) [ leaf b ] ]);
    scenario "reduce_sum off axis"
      (app (Op.Reduce_sum { dim = 1; keepdim = false })
         [ concat 0 [ leaf a; leaf b ] ])
      (concat 0
         [ app (Op.Reduce_sum { dim = 1; keepdim = false }) [ leaf a ];
           app (Op.Reduce_sum { dim = 1; keepdim = false }) [ leaf b ] ]);
    scenario "reduce_mean of equal chunks"
      (app (Op.Reduce_mean { dim = 0; keepdim = false })
         [ concat 0 [ leaf a; leaf b ] ])
      (app (Op.Scale (Rat.make 1 2))
         [ app Op.Sum_n
             [ app (Op.Reduce_mean { dim = 0; keepdim = false }) [ leaf a ];
               app (Op.Reduce_mean { dim = 0; keepdim = false }) [ leaf b ] ] ]);
    scenario "reduce_max along concat axis"
      (app (Op.Reduce_max { dim = 0; keepdim = false })
         [ concat 0 [ leaf a; leaf b ] ])
      (app Op.Maximum
         [ app (Op.Reduce_max { dim = 0; keepdim = false }) [ leaf a ];
           app (Op.Reduce_max { dim = 0; keepdim = false }) [ leaf b ] ]);
    scenario "softmax over row concat"
      (app (Op.Softmax { dim = 1 }) [ concat 0 [ leaf a; leaf b ] ])
      (concat 0
         [ app (Op.Softmax { dim = 1 }) [ leaf a ];
           app (Op.Softmax { dim = 1 }) [ leaf b ] ]);
    negative "softmax along the concat axis does not distribute"
      (app (Op.Softmax { dim = 0 }) [ concat 0 [ leaf a; leaf b ] ])
      (concat 0
         [ app (Op.Softmax { dim = 0 }) [ leaf a ];
           app (Op.Softmax { dim = 0 }) [ leaf b ] ]);
    scenario "layernorm over row concat"
      (app (Op.Layernorm { eps = 1e-5 })
         [ concat 0 [ leaf a; leaf b ]; leaf w; leaf bias ])
      (concat 0
         [ app (Op.Layernorm { eps = 1e-5 }) [ leaf a; leaf w; leaf bias ];
           app (Op.Layernorm { eps = 1e-5 }) [ leaf b; leaf w; leaf bias ] ]);
    scenario "rmsnorm over row concat (the Figure 5 lemma)"
      (app (Op.Rmsnorm { eps = 1e-5 }) [ concat 0 [ leaf a; leaf b ]; leaf w ])
      (concat 0
         [ app (Op.Rmsnorm { eps = 1e-5 }) [ leaf a; leaf w ];
           app (Op.Rmsnorm { eps = 1e-5 }) [ leaf b; leaf w ] ]);
  ]

(* --- embedding, rope, losses ---------------------------------------------- *)

let nn_tests =
  let w = t "w" [ 8; 4 ] in
  let ids1 = t ~dtype:Dtype.I64 "ids1" [ 3 ] in
  let ids2 = t ~dtype:Dtype.I64 "ids2" [ 2 ] in
  let x1 = t "x1" [ 2; 4 ] and x2 = t "x2" [ 2; 4 ] in
  let cos = t "cos" [ 4; 4 ] and sin = t "sin" [ 4; 4 ] in
  let p1 = t "p1" [ 3; 2 ] and p2 = t "p2" [ 3; 2 ] in
  let y1 = t "y1" [ 3; 2 ] and y2 = t "y2" [ 3; 2 ] in
  [
    scenario "embedding of concatenated ids"
      (app Op.Embedding [ leaf w; concat 0 [ leaf ids1; leaf ids2 ] ])
      (concat 0
         [ app Op.Embedding [ leaf w; leaf ids1 ];
           app Op.Embedding [ leaf w; leaf ids2 ] ]);
    scenario "rope over row concat uses table slices"
      (app Op.Rope [ concat 0 [ leaf x1; leaf x2 ]; leaf cos; leaf sin ])
      (concat 0
         [
           app Op.Rope [ leaf x1; slice 0 0 2 [ leaf cos ]; slice 0 0 2 [ leaf sin ] ];
           app Op.Rope [ leaf x2; slice 0 2 4 [ leaf cos ]; slice 0 2 4 [ leaf sin ] ];
         ]);
    negative "rope with wrong table offsets is rejected"
      (app Op.Rope [ concat 0 [ leaf x1; leaf x2 ]; leaf cos; leaf sin ])
      (concat 0
         [
           app Op.Rope [ leaf x1; slice 0 0 2 [ leaf cos ]; slice 0 0 2 [ leaf sin ] ];
           app Op.Rope [ leaf x2; slice 0 0 2 [ leaf cos ]; slice 0 0 2 [ leaf sin ] ];
         ]);
    scenario "mse over equal microbatches (bug 6 lemma)"
      (app Op.Mse_loss
         [ concat 0 [ leaf p1; leaf p2 ]; concat 0 [ leaf y1; leaf y2 ] ])
      (app (Op.Scale (Rat.make 1 2))
         [ app Op.Sum_n
             [ app Op.Mse_loss [ leaf p1; leaf y1 ];
               app Op.Mse_loss [ leaf p2; leaf y2 ] ] ]);
  ]

(* --- collectives ----------------------------------------------------------- *)

let collective_tests =
  let a = t "a" [ 4; 4 ] and b = t "b" [ 4; 4 ] and c = t "c" [ 4; 4 ] in
  [
    scenario "all_reduce is elementwise sum"
      (app Op.All_reduce [ leaf a; leaf b; leaf c ])
      (app Op.Sum_n [ leaf a; leaf b; leaf c ]);
    scenario "reduce_scatter is a slice of the sum"
      (app (Op.Reduce_scatter { dim = 0; index = 1; count = 2 }) [ leaf a; leaf b ])
      (slice 0 2 4 [ app Op.Sum_n [ leaf a; leaf b ] ]);
    scenario "all_gather is concat"
      (app (Op.All_gather { dim = 1 }) [ leaf a; leaf b ])
      (concat 1 [ leaf a; leaf b ]);
    negative "reduce_scatter chunks differ"
      (app (Op.Reduce_scatter { dim = 0; index = 0; count = 2 }) [ leaf a; leaf b ])
      (app (Op.Reduce_scatter { dim = 0; index = 1; count = 2 }) [ leaf a; leaf b ]);
  ]

(* --- vLLM and HLO dialects -------------------------------------------------- *)

let dialect_tests =
  let g = t "g" [ 3; 4 ] and u = t "u" [ 3; 4 ] in
  let x = t "x" [ 3; 4 ] and y = t "y" [ 4; 2 ] in
  [
    scenario "fused swiglu unfuses"
      (app Op.Swiglu_fused [ leaf g; leaf u ])
      (app Op.Mul [ app Op.Silu [ leaf g ]; leaf u ]);
    scenario "swiglu distributes over concat"
      (app Op.Swiglu_fused
         [ concat 0 [ leaf g; leaf u ]; concat 0 [ leaf x; leaf x ] ])
      (concat 0
         [ app Op.Swiglu_fused [ leaf g; leaf x ];
           app Op.Swiglu_fused [ leaf u; leaf x ] ]);
    scenario "hlo dot is matmul"
      (app Op.Hlo_dot [ leaf x; leaf y ])
      (app Op.Matmul [ leaf x; leaf y ]);
    scenario "hlo slice bridges to aten slice"
      (app (Op.Hlo_slice { dim = 0; start = sd 1; stop = sd 3 }) [ leaf x ])
      (slice 0 1 3 [ leaf x ]);
    scenario "hlo concatenate bridges"
      (app (Op.Hlo_concatenate { dim = 0 }) [ leaf g; leaf u ])
      (concat 0 [ leaf g; leaf u ]);
    (let ha = t "ha" [ 3; 2 ] and hb = t "hb" [ 3; 2 ] in
     let hc = t "hc" [ 2; 5 ] and hd = t "hd" [ 2; 5 ] in
     scenario "hlo dot reuses aten block lemma"
       (app Op.Hlo_dot [ concat 1 [ leaf ha; leaf hb ]; concat 0 [ leaf hc; leaf hd ] ])
       (app Op.Sum_n
          [ app Op.Matmul [ leaf ha; leaf hc ]; app Op.Matmul [ leaf hb; leaf hd ] ]));
  ]

(* --- constrained regrouping ------------------------------------------------ *)

let lemma_rules name =
  match Entangle_lemmas.Registry.find name with
  | Some l -> l.Entangle_lemmas.Lemma.rules
  | None -> invalid_arg ("no lemma " ^ name)

(* Each scenario loads only the lemma under test: concat-flatten and
   sum-flatten would otherwise prove the same equalities. The grouped
   side's sub-terms exist because it is added too; that is what lets
   the constrained lemma fire. *)
let regroup_tests =
  let l = Array.init 6 (fun i -> leaf (t (Fmt.str "r%d" i) [ 2; 3 ])) in
  let run i n = List.init n (fun j -> l.(i + j)) in
  let sum = app Op.Sum_n in
  [
    scenario ~rules:(lemma_rules "concat-group")
      "concat-group joins concat(a,b,c,d) with its halves"
      (concat 0 (run 0 4))
      (concat 0 [ concat 0 (run 0 2); concat 0 (run 2 2) ]);
    scenario ~rules:(lemma_rules "concat-group")
      "concat-group joins concat(a..f) with its 3+3 grouping"
      (concat 0 (run 0 6))
      (concat 0 [ concat 0 (run 0 3); concat 0 (run 3 3) ]);
    scenario ~rules:(lemma_rules "sum-group")
      "sum-group joins sum(a,b,c,d) with its halves"
      (sum (run 0 4))
      (sum [ sum (run 0 2); sum (run 2 2) ]);
    Alcotest.test_case "concat-group needs every grouped sub-concat" `Quick
      (fun () ->
        let g = Egraph.create () in
        let whole = Egraph.add_expr g (concat 0 (run 0 4)) in
        ignore (Egraph.add_expr g (concat 0 (run 0 2)));
        ignore
          (Runner.run ~limits:scenario_limits g (lemma_rules "concat-group"));
        Alcotest.check Alcotest.int "no regrouping without concat(c,d)" 1
          (List.length (Egraph.nodes_of g whole)));
  ]

(* The regrouping lemmas' guard without the arity census: build the
   probe node and look it up. *)
let probe_exists g subst op = function
  | [ _ ] -> true
  | group ->
      let var = function Pattern.V x -> Subst.var subst x | _ -> assert false in
      Option.is_some (Egraph.lookup g (Enode.op op (List.map var group)))

let pattern_vars n = List.init n (fun i -> Pattern.v (Fmt.str "x%d" i))

let chunks groups l =
  let per = List.length l / groups in
  List.init groups (fun i -> List.filteri (fun j _ -> j / per = i) l)

let equal_instances = [ (4, 2); (6, 2); (6, 3); (8, 2); (8, 4) ]

(* Reference appliers of concat-group and sum-group over the probe
   guard, rule for rule in corpus order. *)
let reference_concat_group =
  let guarded subst k =
    match Subst.op subst "cc" with
    | Op.Concat { dim } -> k (Op.Concat { dim })
    | _ -> []
  in
  let split (n, k) g root subst =
    guarded subst (fun op ->
        let xs = pattern_vars n in
        let prefix = List.filteri (fun i _ -> i < k) xs in
        let suffix = List.filteri (fun i _ -> i >= k) xs in
        let wrap = function [ one ] -> one | many -> Pattern.p op many in
        if probe_exists g subst op prefix && probe_exists g subst op suffix
        then [ (Pattern.c root, Pattern.p op [ wrap prefix; wrap suffix ]) ]
        else [])
  and equal (n, groups) g root subst =
    guarded subst (fun op ->
        let all = chunks groups (pattern_vars n) in
        if List.for_all (probe_exists g subst op) all then
          [ (Pattern.c root, Pattern.p op (List.map (Pattern.p op) all)) ]
        else [])
  in
  List.concat_map
    (fun n -> List.init (n - 1) (fun k -> split (n, k + 1)))
    [ 3; 4; 6; 8 ]
  @ List.map equal equal_instances

let reference_sum_group =
  List.map
    (fun (n, groups) g root subst ->
      let all = chunks groups (pattern_vars n) in
      let sum = Pattern.p Op.Sum_n in
      if List.for_all (probe_exists g subst Op.Sum_n) all then
        [ (Pattern.c root, sum (List.map sum all)) ]
      else [])
    equal_instances

type regroup_step =
  | Node of bool * int * int * int  (** sum?, concat dim, first leaf, arity *)
  | Merge of int * int

let pp_regroup_step ppf = function
  | Node (is_sum, dim, first, n) ->
      Fmt.pf ppf "%s(l%d..+%d)"
        (if is_sum then "sum" else Fmt.str "concat%d" dim)
        first n
  | Merge (a, b) -> Fmt.pf ppf "union #%d #%d" a b

(* Concat and sum nodes of arity 2-8 over runs of six shared leaves, so
   grouped sub-terms sometimes exist, then random unions. *)
let regroup_step_gen =
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map
            (fun (((is_sum, dim), first), n) -> Node (is_sum, dim, first, n))
            (pair
               (pair (pair bool (int_bound 1)) (int_bound 5))
               (int_range 2 8)) );
        (1, map2 (fun a b -> Merge (a, b)) (int_bound 40) (int_bound 40));
      ])

let regroup_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"census-guarded regrouping equals the probe-only guard" ~count:150
       (QCheck.make
          ~print:(Fmt.str "%a" (Fmt.Dump.list pp_regroup_step))
          QCheck.Gen.(list_size (int_range 1 30) regroup_step_gen))
       (fun steps ->
         let g = Egraph.create () in
         let leaves =
           Array.init 6 (fun i ->
               Egraph.add_leaf g (t (Fmt.str "q%d" i) [ 2; 3 ]))
         in
         let ids = ref (Array.to_list leaves) in
         List.iter
           (function
             | Node (is_sum, dim, first, n) ->
                 let op = if is_sum then Op.Sum_n else Op.Concat { dim } in
                 let child i = leaves.((first + i) mod 6) in
                 ids := !ids @ [ Egraph.add_op g op (List.init n child) ]
             | Merge (a, b) ->
                 let cls i = List.nth !ids (i mod List.length !ids) in
                 ignore (Egraph.union g (cls a) (cls b)))
           steps;
         Egraph.rebuild g;
         let agrees rules references =
           List.length rules = List.length references
           && List.for_all2
                (fun (rule : Rule.t) reference ->
                  match rule.applier with
                  | Rule.Syntactic _ -> false
                  | Rule.Conditional f ->
                      List.for_all
                        (fun (cls, subst) ->
                          f g cls subst = reference g cls subst)
                        (Ematch.match_all g rule.lhs))
                rules references
         in
         agrees (lemma_rules "concat-group") reference_concat_group
         && agrees (lemma_rules "sum-group") reference_sum_group))

(* --- metadata -------------------------------------------------------------- *)

let metadata_tests =
  [
    Alcotest.test_case "registry has a substantial corpus" `Quick (fun () ->
        let n = List.length Entangle_lemmas.Registry.all in
        Alcotest.check Alcotest.bool "at least 60 lemmas" true (n >= 60));
    Alcotest.test_case "lemma names unique" `Quick (fun () ->
        let names =
          List.map (fun (l : Entangle_lemmas.Lemma.t) -> l.name)
            Entangle_lemmas.Registry.all
        in
        Alcotest.check Alcotest.int "no duplicates"
          (List.length names)
          (List.length (List.sort_uniq compare names)));
    Alcotest.test_case "id_of is the position in the corpus" `Quick (fun () ->
        List.iteri
          (fun i (l : Entangle_lemmas.Lemma.t) ->
            Alcotest.check (Alcotest.option Alcotest.int) l.name (Some i)
              (Entangle_lemmas.Registry.id_of l.name))
          Entangle_lemmas.Registry.all);
    Alcotest.test_case "model families select dialect lemmas" `Quick (fun () ->
        let has k fam =
          List.exists
            (fun (l : Entangle_lemmas.Lemma.t) -> l.klass = k)
            (Entangle_lemmas.Registry.for_model fam)
        in
        Alcotest.check Alcotest.bool "qwen2 has vllm" true
          (has Entangle_lemmas.Lemma.Vllm Entangle_lemmas.Registry.Qwen2);
        Alcotest.check Alcotest.bool "llama has hlo" true
          (has Entangle_lemmas.Lemma.Hlo Entangle_lemmas.Registry.Llama);
        Alcotest.check Alcotest.bool "gpt has no vllm" false
          (has Entangle_lemmas.Lemma.Vllm Entangle_lemmas.Registry.Gpt));
    Alcotest.test_case "rmsnorm lemma has the paper's complexity 5" `Quick
      (fun () ->
        match Entangle_lemmas.Registry.find "rmsnorm-concat-rows" with
        | Some l -> Alcotest.check Alcotest.int "complexity" 5 l.complexity
        | None -> Alcotest.fail "lemma missing");
  ]

let suite =
  [
    ("lemmas.matmul", matmul_tests);
    ("lemmas.rearrange", rearrange_tests);
    ("lemmas.elementwise", ewise_tests);
    ("lemmas.scale-sum", scalesum_tests);
    ("lemmas.reduce-nn", reduce_nn_tests);
    ("lemmas.nn", nn_tests);
    ("lemmas.collectives", collective_tests);
    ("lemmas.dialects", dialect_tests);
    ("lemmas.regroup", regroup_tests @ [ regroup_property ]);
    ("lemmas.metadata", metadata_tests);
  ]

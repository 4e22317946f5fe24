open Entangle_symbolic
open Entangle_ir
open Entangle_egraph
open Helpers

let lo, hi = collective_arities

(* Row dimension of a matrix of the given rank (batch dims lead). *)
let row_dim rank = rank - 2
let col_dim rank = rank - 1

(* --- matmul block lemmas --------------------------------------------- *)

(* matmul(concat(x_i, rows), y) = concat(matmul(x_i, y), rows). *)
let matmul_row_split =
  let gen n =
    Rule.rewrite_to "matmul-row-split"
      (p Op.Matmul [ fam "concat" ~bind:"cc" (vars n); v "y" ])
      (fun g _root subst ->
        let* cd = concat_dim (Subst.op subst "cc") in
        let* rank = rank_of_var g subst "x0" in
        let* () = guard (cd = row_dim rank) in
        Some
          (p
             (Op.Concat { dim = cd })
             (List.map (fun x -> p Op.Matmul [ x; v "y" ]) (vars n))))
  and gen_rev n =
    Rule.rewrite_to ~constrained:true "matmul-row-split"
      (fam "concat" ~bind:"cc"
         (List.map (fun x -> p Op.Matmul [ x; v "y" ]) (vars n)))
      (fun g _root subst ->
        let* cd = concat_dim (Subst.op subst "cc") in
        let* rank = rank_of_var g subst "x0" in
        let* () = guard (cd = row_dim rank) in
        Some (p Op.Matmul [ p (Op.Concat { dim = cd }) (vars n); v "y" ]))
  in
  Lemma.make ~complexity:4 "matmul-row-split"
    (for_arities lo hi gen @ for_arities lo hi gen_rev)

(* matmul(x, concat(y_i, cols)) = concat(matmul(x, y_i), cols). *)
let matmul_col_split =
  let gen n =
    Rule.rewrite_to "matmul-col-split"
      (p Op.Matmul [ v "x"; fam "concat" ~bind:"cc" (vars_y n) ])
      (fun g _root subst ->
        let* cd = concat_dim (Subst.op subst "cc") in
        let* rank_y = rank_of_var g subst "y0" in
        let* () = guard (cd = col_dim rank_y) in
        let* rank_x = rank_of_var g subst "x" in
        let out_dim = max rank_x rank_y - 1 in
        Some
          (p
             (Op.Concat { dim = out_dim })
             (List.map (fun y -> p Op.Matmul [ v "x"; y ]) (vars_y n))))
  and gen_rev n =
    Rule.rewrite_to ~constrained:true "matmul-col-split"
      (fam "concat" ~bind:"cc"
         (List.map (fun y -> p Op.Matmul [ v "x"; y ]) (vars_y n)))
      (fun g _root subst ->
        let* cd = concat_dim (Subst.op subst "cc") in
        let* rank_y = rank_of_var g subst "y0" in
        let* rank_x = rank_of_var g subst "x" in
        let* () = guard (cd = max rank_x rank_y - 1) in
        Some
          (p Op.Matmul
             [ v "x"; p (Op.Concat { dim = col_dim rank_y }) (vars_y n) ]))
  in
  Lemma.make ~complexity:4 "matmul-col-split"
    (for_arities lo hi gen @ for_arities lo hi gen_rev)

(* matmul(concat(x_i, cols), concat(y_i, rows)) = sum(matmul(x_i, y_i)):
   the block inner-product lemma behind row-parallel linear layers. *)
let matmul_contraction_split =
  let gen n =
    let xs = vars n and ys = vars_y n in
    Rule.rewrite_to "matmul-contraction-split"
      (p Op.Matmul
         [ fam "concat" ~bind:"ccx" xs; fam "concat" ~bind:"ccy" ys ])
      (fun g _root subst ->
        let* cdx = concat_dim (Subst.op subst "ccx") in
        let* cdy = concat_dim (Subst.op subst "ccy") in
        let* rank_x = rank_of_var g subst "x0" in
        let* rank_y = rank_of_var g subst "y0" in
        let* () = guard (cdx = col_dim rank_x && cdy = row_dim rank_y) in
        (* Chunk sizes must agree pairwise for the blocks to multiply. *)
        let rec chunks_ok i =
          if i = n then Some ()
          else
            let* kx = dim_of_var g subst (Printf.sprintf "x%d" i) cdx in
            let* ky = dim_of_var g subst (Printf.sprintf "y%d" i) cdy in
            let* () = guard (deq g kx ky) in
            chunks_ok (i + 1)
        in
        let* () = chunks_ok 0 in
        Some (p Op.Sum_n (List.map2 (fun x y -> p Op.Matmul [ x; y ]) xs ys)))
  in
  Lemma.make ~complexity:5 ~hints:[ Lemma.Contraction ] "matmul-contraction-split"
    (for_arities lo hi gen)

(* transpose(matmul(x, y)) = matmul(transpose(y), transpose(x)), rank 2. *)
let matmul_transpose =
  let tr = Op.Transpose { dim0 = 0; dim1 = 1 } in
  Lemma.make "matmul-transpose"
    [
      Rule.rewrite_to "matmul-transpose"
        (fam "transpose" ~bind:"tr" [ p Op.Matmul [ v "x"; v "y" ] ])
        (fun g _root subst ->
          let* d0, d1 = transpose_dims (Subst.op subst "tr") in
          let* rank = rank_of_var g subst "x" in
          let* () = guard (rank = 2 && ((d0 = 0 && d1 = 1) || (d0 = 1 && d1 = 0))) in
          Some (p Op.Matmul [ p tr [ v "y" ]; p tr [ v "x" ] ]));
    ]

(* --- scale algebra ---------------------------------------------------- *)

let scale_merge =
  Lemma.make "scale-merge"
    [
      Rule.rewrite_to "scale-merge"
        (fam "scale" ~bind:"s1" [ fam "scale" ~bind:"s2" [ v "x" ] ])
        (fun _g _root subst ->
          let* a = scale_factor (Subst.op subst "s1") in
          let* b = scale_factor (Subst.op subst "s2") in
          Some (p (Op.Scale (Rat.mul a b)) [ v "x" ]));
    ]

let scale_one =
  Lemma.make "scale-one"
    [
      Rule.rewrite_to "scale-one"
        (fam "scale" ~bind:"s" [ v "x" ])
        (fun _g _root subst ->
          let* r = scale_factor (Subst.op subst "s") in
          let* () = guard (Rat.equal r Rat.one) in
          Some (v "x"));
    ]

(* scale(k, sum(x_i)) = sum(scale(k, x_i)), both directions. *)
let scale_sum_distribute =
  let gen n =
    Rule.rewrite_to "scale-sum-distribute"
      (fam "scale" ~bind:"s" [ p Op.Sum_n (vars n) ])
      (fun _g _root subst ->
        let* r = scale_factor (Subst.op subst "s") in
        Some
          (p Op.Sum_n (List.map (fun x -> p (Op.Scale r) [ x ]) (vars n))))
  and gen_rev n =
    Rule.rewrite_to ~constrained:true "scale-sum-distribute"
      (p Op.Sum_n (List.map (fun x -> fam "scale" ~bind:"s" [ x ]) (vars n)))
      (fun _g _root subst ->
        let* r = scale_factor (Subst.op subst "s") in
        Some (p (Op.Scale r) [ p Op.Sum_n (vars n) ]))
  in
  Lemma.make ~complexity:3 "scale-sum-distribute"
    (for_arities lo hi gen @ for_arities lo hi gen_rev)

(* matmul(scale(k, x), y) = scale(k, matmul(x, y)) and symmetrically. *)
let scale_matmul =
  Lemma.make "scale-matmul"
    [
      Rule.rewrite_to "scale-matmul"
        (p Op.Matmul [ fam "scale" ~bind:"s" [ v "x" ]; v "y" ])
        (fun _g _root subst ->
          let* r = scale_factor (Subst.op subst "s") in
          Some (p (Op.Scale r) [ p Op.Matmul [ v "x"; v "y" ] ]));
      Rule.rewrite_to "scale-matmul"
        (p Op.Matmul [ v "x"; fam "scale" ~bind:"s" [ v "y" ] ])
        (fun _g _root subst ->
          let* r = scale_factor (Subst.op subst "s") in
          Some (p (Op.Scale r) [ p Op.Matmul [ v "x"; v "y" ] ]));
      Rule.rewrite_to "scale-matmul"
        (fam "scale" ~bind:"s" [ p Op.Matmul [ v "x"; v "y" ] ])
        (fun _g _root subst ->
          let* r = scale_factor (Subst.op subst "s") in
          Some (p Op.Matmul [ p (Op.Scale r) [ v "x" ]; v "y" ]));
    ]

(* --- sum algebra ------------------------------------------------------ *)

let add_is_sum =
  Lemma.make "add-is-sum"
    [
      Rule.make "add-is-sum" (p Op.Add [ v "a"; v "b" ]) (p Op.Sum_n [ v "a"; v "b" ]);
      Rule.make "add-is-sum" (p Op.Sum_n [ v "a"; v "b" ]) (p Op.Add [ v "a"; v "b" ]);
    ]

let sub_is_add_neg =
  Lemma.make "sub-is-add-neg"
    [
      Rule.make "sub-is-add-neg"
        (p Op.Sub [ v "a"; v "b" ])
        (p Op.Add [ v "a"; p (Op.Scale Rat.minus_one) [ v "b" ] ]);
    ]

let neg_is_scale =
  Lemma.make "neg-is-scale"
    [
      Rule.make "neg-is-scale" (p Op.Neg [ v "x" ])
        (p (Op.Scale Rat.minus_one) [ v "x" ]);
      Rule.make "neg-is-scale"
        (p (Op.Scale Rat.minus_one) [ v "x" ])
        (p Op.Neg [ v "x" ]);
    ]

(* sum(sum(g1), sum(g2), ...) = sum(g1 @ g2 @ ...): flattening nested
   per-rank partial sums into the sequential model's single sum. *)
let sum_flatten =
  let gen (outer, inner) =
    let groups =
      List.init outer (fun i ->
          List.init inner (fun j -> v (Printf.sprintf "x%d_%d" i j)))
    in
    Rule.make "sum-flatten"
      (p Op.Sum_n (List.map (fun grp -> p Op.Sum_n grp) groups))
      (p Op.Sum_n (List.concat groups))
  in
  let instances =
    List.concat_map
      (fun outer -> List.map (fun inner -> (outer, inner)) [ 2; 3; 4 ])
      [ 2; 3; 4 ]
    |> List.filter (fun (outer, inner) -> outer * inner <= 8)
  in
  Lemma.make ~complexity:3 "sum-flatten" (List.map gen instances)

(* sum with one nested sum among plain terms. *)
let sum_assoc =
  let gen n =
    [
      Rule.make "sum-assoc"
        (p Op.Sum_n (p Op.Sum_n [ v "a"; v "b" ] :: vars n))
        (p Op.Sum_n (v "a" :: v "b" :: vars n));
      Rule.make "sum-assoc"
        (p Op.Sum_n (vars n @ [ p Op.Sum_n [ v "a"; v "b" ] ]))
        (p Op.Sum_n (vars n @ [ v "a"; v "b" ]));
    ]
  in
  Lemma.make ~complexity:2 "sum-assoc" (List.concat_map gen [ 1; 2; 3 ])

(* sum(x0..x(n-1)) -> sum of contiguous sub-sums, constrained in the
   sense of section 4.3.2: the sub-sums must already exist as e-nodes
   (the per-rank partial sums a distributed graph materialized before a
   collective). Mirrors concat-group. *)
let sum_group =
  let gen (n, groups) =
    let names = equal_groups ~groups (var_names n) in
    let rhs =
      p Op.Sum_n (List.map (p Op.Sum_n) (equal_groups ~groups (vars n)))
    in
    Rule.rewrite_to ~nonlocal:true "sum-group"
      (p Op.Sum_n (vars n))
      (fun g _root subst ->
        if List.for_all (sub_term_exists g subst Op.Sum_n) names then Some rhs
        else None)
  in
  let instances =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun g -> if n mod g = 0 && g > 1 && g < n then Some (n, g) else None)
          [ 2; 3; 4 ])
      [ 4; 6; 8 ]
  in
  Lemma.make ~complexity:3 "sum-group" (List.map gen instances)

(* sum(x, x, ..., x) = scale(n, x): replicated contributions. *)
let sum_of_replicas =
  let gen n =
    Rule.make_dyn "sum-of-replicas"
      (p Op.Sum_n (vars n))
      (fun g root subst ->
        let first = Egraph.find g (Subst.var subst "x0") in
        let all_equal =
          List.for_all
            (fun i ->
              Id.equal (Egraph.find g (Subst.var subst (Printf.sprintf "x%d" i))) first)
            (List.init n Fun.id)
        in
        if all_equal then
          [ (Pattern.c root, p (Op.Scale (Rat.of_int n)) [ v "x0" ]) ]
        else [])
  in
  Lemma.make ~complexity:2 ~hints:[ Lemma.Replicated ] "sum-of-replicas"
    (for_arities lo hi gen)

let lemmas =
  [
    matmul_row_split;
    matmul_col_split;
    matmul_contraction_split;
    matmul_transpose;
    scale_merge;
    scale_one;
    scale_sum_distribute;
    scale_matmul;
    add_is_sum;
    sub_is_add_neg;
    neg_is_scale;
    sum_flatten;
    sum_assoc;
    sum_group;
    sum_of_replicas;
  ]

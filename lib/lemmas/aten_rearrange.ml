open Entangle_symbolic
open Entangle_ir
open Entangle_egraph
open Helpers

let lo, hi = collective_arities

(* --- slice of concat (paper Listing 4) ------------------------------ *)

(* Child layout of a concat along [dim]: (class-pattern, offset, size)
   for each child variable, when every child's size is known. *)
let concat_layout g subst n dim =
  let rec go i off acc =
    if i = n then Some (List.rev acc)
    else
      let x = Printf.sprintf "x%d" i in
      let* size = dim_of_var g subst x dim in
      go (i + 1) (Symdim.add off size) ((v x, off, size) :: acc)
  in
  go 0 Symdim.zero []

let slice_of_concat =
  let gen n =
    Rule.rewrite_to "slice-of-concat"
      (fam "slice" ~bind:"sl" [ fam "concat" ~bind:"cc" (vars n) ])
      (fun g _root subst ->
        let* sdim, start, stop = slice_attrs (Subst.op subst "sl") in
        let* cdim = concat_dim (Subst.op subst "cc") in
        if sdim <> cdim then
          (* Slicing along a different axis commutes with concat. *)
          Some
            (p
               (Op.Concat { dim = cdim })
               (List.map
                  (fun x -> p (Op.Slice { dim = sdim; start; stop }) [ x ])
                  (vars n)))
        else
          let* layout = concat_layout g subst n cdim in
          (* Keep the children that provably intersect [start, stop) and
             slice each to the overlapping part. Comparisons that cannot
             be decided abort the rewrite. *)
          let rec pieces acc = function
            | [] -> Some (List.rev acc)
            | (x, off, size) :: rest ->
                let hi_child = Symdim.add off size in
                if dle g hi_child start || dle g stop off then
                  (* provably disjoint *)
                  pieces acc rest
                else if dle g start off && dle g hi_child stop then
                  (* fully covered *)
                  pieces (x :: acc) rest
                else if dle g off start && dle g stop hi_child then
                  (* piece inside one child *)
                  let s = Symdim.sub start off and e = Symdim.sub stop off in
                  pieces
                    (p (Op.Slice { dim = sdim; start = s; stop = e }) [ x ]
                    :: acc)
                    rest
                else if dle g off start && dle g start hi_child then
                  (* left-partial: [start, hi_child) of this child *)
                  pieces
                    (p
                       (Op.Slice
                          { dim = sdim; start = Symdim.sub start off; stop = size })
                       [ x ]
                    :: acc)
                    rest
                else if dle g off stop && dle g stop hi_child then
                  (* right-partial: [off, stop) of this child *)
                  pieces
                    (p
                       (Op.Slice
                          { dim = sdim; start = Symdim.zero;
                            stop = Symdim.sub stop off })
                       [ x ]
                    :: acc)
                    rest
                else None
          in
          let* ps = pieces [] layout in
          match ps with
          | [] -> None
          | [ one ] -> Some one
          | many -> Some (p (Op.Concat { dim = cdim }) many))
  in
  Lemma.make ~klass:Lemma.Clean ~complexity:4 "slice-of-concat"
    (for_arities lo hi gen)

let slice_of_slice =
  Lemma.make ~klass:Lemma.Clean "slice-of-slice"
    [
      Rule.rewrite_to "slice-of-slice"
        (fam "slice" ~bind:"outer" [ fam "slice" ~bind:"inner" [ v "x" ] ])
        (fun _g _root subst ->
          let* od, os, oe = slice_attrs (Subst.op subst "outer") in
          let* id_, is_, _ie = slice_attrs (Subst.op subst "inner") in
          let* () = guard (od = id_) in
          Some
            (p
               (Op.Slice
                  {
                    dim = od;
                    start = Symdim.add is_ os;
                    stop = Symdim.add is_ oe;
                  })
               [ v "x" ]));
    ]

let slice_full_range =
  Lemma.make ~klass:Lemma.Clean "slice-full-range"
    [
      Rule.rewrite_to "slice-full-range"
        (fam "slice" ~bind:"sl" [ v "x" ])
        (fun g _root subst ->
          let* dim, start, stop = slice_attrs (Subst.op subst "sl") in
          let* size = dim_of_var g subst "x" dim in
          let* () = guard (deq g start Symdim.zero && deq g stop size) in
          Some (v "x"));
    ]

(* --- slices cover (constrained, section 4.3.2) ----------------------- *)

(* If adjacent slices of a tensor already exist as e-nodes and together
   cover it, the tensor equals their concatenation. Anchored on a slice
   with provably zero start; the chain is extended greedily through
   existing slice nodes over the same class. *)
let slices_cover =
  let rule =
    Rule.make_dyn ~nonlocal:true "slices-cover"
      (fam "slice" ~bind:"sl" [ v "x" ])
      (fun g root subst ->
        match slice_attrs (Subst.op subst "sl") with
        | None -> []
        | Some (dim, start, stop) ->
            (* Cheap structural anchor test: chunk offsets are built in
               normal form, so a zero start is structurally zero. *)
            if not (Symdim.equal start Symdim.zero) then []
            else begin
              match dim_of_var g subst "x" dim with
              | None -> []
              | Some size ->
                  let base = Subst.var subst "x" in
                  (* All existing slice nodes over [base] along [dim]. *)
                  let candidates = ref [] in
                  Egraph.iter_nodes g (fun cls node ->
                      match (Enode.sym node, Enode.children node) with
                      | Enode.Op (Op.Slice s), [ child ]
                        when Id.equal (Egraph.find g child) (Egraph.find g base)
                             && s.dim = dim ->
                          candidates := (cls, s.start, s.stop) :: !candidates
                      | _ -> ());
                  let rec chain acc boundary steps =
                    if steps > 32 then None
                    else if deq g boundary size then Some (List.rev acc)
                    else
                      let next =
                        List.find_opt
                          (fun (_, s, e) ->
                            deq g s boundary
                            && not (deq g e boundary) (* progress *))
                          !candidates
                      in
                      match next with
                      | Some (cls, _, e) ->
                          chain (Pattern.c cls :: acc) e (steps + 1)
                      | None -> None
                  in
                  let anchor = Egraph.find g root in
                  (match chain [ Pattern.c anchor ] stop 1 with
                  | Some pieces when List.length pieces >= 2 ->
                      [ (v "x", p (Op.Concat { dim }) pieces) ]
                  | _ -> [])
            end)
  in
  Lemma.make ~klass:Lemma.Clean ~complexity:3 ~conditioned:true "slices-cover"
    [ rule ]

(* --- concat algebra -------------------------------------------------- *)

let concat_flatten =
  let left n =
    (* concat(concat(x0..x(n-1), d), y, d) -> concat(x0..x(n-1), y, d) *)
    Rule.rewrite_to "concat-flatten"
      (fam "concat" ~bind:"outer" [ fam "concat" ~bind:"inner" (vars n); v "y" ])
      (fun _g _root subst ->
        let* od = concat_dim (Subst.op subst "outer") in
        let* idim = concat_dim (Subst.op subst "inner") in
        let* () = guard (od = idim) in
        Some (p (Op.Concat { dim = od }) (vars n @ [ v "y" ])))
  and right n =
    Rule.rewrite_to "concat-flatten"
      (fam "concat" ~bind:"outer" [ v "y"; fam "concat" ~bind:"inner" (vars n) ])
      (fun _g _root subst ->
        let* od = concat_dim (Subst.op subst "outer") in
        let* idim = concat_dim (Subst.op subst "inner") in
        let* () = guard (od = idim) in
        Some (p (Op.Concat { dim = od }) (v "y" :: vars n)))
  and both (n, m) =
    let xs, ys = vars2 (max n m) in
    let xs = List.filteri (fun i _ -> i < n) xs in
    let ys = List.filteri (fun i _ -> i < m) ys in
    Rule.rewrite_to "concat-flatten"
      (fam "concat" ~bind:"outer"
         [ fam "concat" ~bind:"l" xs; fam "concat" ~bind:"r" ys ])
      (fun _g _root subst ->
        let* od = concat_dim (Subst.op subst "outer") in
        let* ld = concat_dim (Subst.op subst "l") in
        let* rd = concat_dim (Subst.op subst "r") in
        let* () = guard (od = ld && od = rd) in
        Some (p (Op.Concat { dim = od }) (xs @ ys)))
  in
  let pairs =
    List.concat_map (fun n -> List.map (fun m -> (n, m)) [ 2; 3; 4 ]) [ 2; 3; 4 ]
  in
  Lemma.make ~klass:Lemma.Clean ~complexity:3 "concat-flatten"
    (for_arities 2 (hi - 1) left
    @ for_arities 2 (hi - 1) right
    @ List.map both pairs)

let concat_group =
  (* concat(x0..x(n-1), d) -> concat(concat(prefix), concat(suffix), d).
     Constrained in the sense of section 4.3.2: the grouped sub-concats
     must already exist as e-nodes (they are the per-rank concats the
     distributed graph materialized); the outer regrouping node itself
     is inserted. Each instance splits its variables once, here. *)
  let gen (n, k) =
    let split l =
      (List.filteri (fun i _ -> i < k) l, List.filteri (fun i _ -> i >= k) l)
    in
    let prefix, suffix = split (vars n) in
    let prefix_names, suffix_names = split (var_names n) in
    Rule.rewrite_to ~nonlocal:true "concat-group"
      (fam "concat" ~bind:"cc" (vars n))
      (fun g _root subst ->
        let* dim = concat_dim (Subst.op subst "cc") in
        let op = Op.Concat { dim } in
        let* () =
          guard
            (sub_term_exists g subst op prefix_names
            && sub_term_exists g subst op suffix_names)
        in
        let wrap = function [ one ] -> one | many -> p op many in
        Some (p op [ wrap prefix; wrap suffix ]))
  in
  (* Equal regrouping into [groups] sub-concats. *)
  let gen_equal (n, groups) =
    let groups_of l = equal_groups ~groups l in
    let all_groups = groups_of (vars n) and names = groups_of (var_names n) in
    Rule.rewrite_to ~nonlocal:true "concat-group"
      (fam "concat" ~bind:"cc" (vars n))
      (fun g _root subst ->
        let* dim = concat_dim (Subst.op subst "cc") in
        let op = Op.Concat { dim } in
        let* () = guard (List.for_all (sub_term_exists g subst op) names) in
        Some (p op (List.map (p op) all_groups)))
  in
  let instances =
    List.concat_map
      (fun n -> List.map (fun k -> (n, k)) (List.init (n - 1) (fun i -> i + 1)))
      [ 3; 4; 6; 8 ]
  in
  let equal_instances =
    List.concat_map
      (fun n ->
        List.filter_map
          (fun g -> if n mod g = 0 && g > 1 && g < n then Some (n, g) else None)
          [ 2; 3; 4 ])
      [ 4; 6; 8 ]
  in
  Lemma.make ~klass:Lemma.Clean ~complexity:3 ~conditioned:true "concat-group"
    (List.map gen instances @ List.map gen_equal equal_instances)

(* --- transpose ------------------------------------------------------- *)

let transpose_involution =
  Lemma.make ~klass:Lemma.Clean "transpose-involution"
    [
      Rule.rewrite_to "transpose-involution"
        (fam "transpose" ~bind:"outer" [ fam "transpose" ~bind:"inner" [ v "x" ] ])
        (fun _g _root subst ->
          let* o0, o1 = transpose_dims (Subst.op subst "outer") in
          let* i0, i1 = transpose_dims (Subst.op subst "inner") in
          let* () = guard ((o0 = i0 && o1 = i1) || (o0 = i1 && o1 = i0)) in
          Some (v "x"));
    ]

let transpose_of_concat =
  let gen n =
    Rule.rewrite_to "transpose-of-concat"
      (fam "transpose" ~bind:"tr" [ fam "concat" ~bind:"cc" (vars n) ])
      (fun _g _root subst ->
        let* d0, d1 = transpose_dims (Subst.op subst "tr") in
        let* cd = concat_dim (Subst.op subst "cc") in
        let cd' = if cd = d0 then d1 else if cd = d1 then d0 else cd in
        Some
          (p
             (Op.Concat { dim = cd' })
             (List.map
                (fun x -> p (Op.Transpose { dim0 = d0; dim1 = d1 }) [ x ])
                (vars n))))
  and gen_rev n =
    Rule.rewrite_to ~constrained:true "transpose-of-concat"
      (fam "concat" ~bind:"cc"
         (List.map
            (fun x -> fam "transpose" ~bind:"tr" [ x ])
            (vars n)))
      (fun _g _root subst ->
        let* d0, d1 = transpose_dims (Subst.op subst "tr") in
        let* cd = concat_dim (Subst.op subst "cc") in
        let cd' = if cd = d0 then d1 else if cd = d1 then d0 else cd in
        Some
          (p
             (Op.Transpose { dim0 = d0; dim1 = d1 })
             [ p (Op.Concat { dim = cd' }) (vars n) ]))
  in
  Lemma.make ~klass:Lemma.Clean ~complexity:3 "transpose-of-concat"
    (for_arities lo 4 gen @ for_arities lo 4 gen_rev)

(* slice(transpose(x), d, a, b) = transpose(slice(x, d', a, b)) where d'
   is d with the transposed axes swapped. *)
let transpose_slice =
  let swap d0 d1 d = if d = d0 then d1 else if d = d1 then d0 else d in
  Lemma.make ~klass:Lemma.Clean "transpose-slice"
    [
      Rule.rewrite_to "transpose-slice"
        (fam "slice" ~bind:"sl" [ fam "transpose" ~bind:"tr" [ v "x" ] ])
        (fun _g _root subst ->
          let* dim, start, stop = slice_attrs (Subst.op subst "sl") in
          let* d0, d1 = transpose_dims (Subst.op subst "tr") in
          Some
            (p (Op.Transpose { dim0 = d0; dim1 = d1 })
               [ p (Op.Slice { dim = swap d0 d1 dim; start; stop }) [ v "x" ] ]));
      Rule.rewrite_to "transpose-slice"
        (fam "transpose" ~bind:"tr" [ fam "slice" ~bind:"sl" [ v "x" ] ])
        (fun _g _root subst ->
          let* dim, start, stop = slice_attrs (Subst.op subst "sl") in
          let* d0, d1 = transpose_dims (Subst.op subst "tr") in
          Some
            (p (Op.Slice { dim = swap d0 d1 dim; start; stop })
               [ p (Op.Transpose { dim0 = d0; dim1 = d1 }) [ v "x" ] ]));
    ]

(* transpose commutes with pad the same way. *)
let transpose_pad =
  let swap d0 d1 d = if d = d0 then d1 else if d = d1 then d0 else d in
  Lemma.make ~klass:Lemma.Clean "transpose-pad"
    [
      Rule.rewrite_to "transpose-pad"
        (fam "transpose" ~bind:"tr" [ fam "pad" ~bind:"pd" [ v "x" ] ])
        (fun _g _root subst ->
          let* d0, d1 = transpose_dims (Subst.op subst "tr") in
          match Subst.op subst "pd" with
          | Op.Pad { dim; before; after } ->
              Some
                (p (Op.Pad { dim = swap d0 d1 dim; before; after })
                   [ p (Op.Transpose { dim0 = d0; dim1 = d1 }) [ v "x" ] ])
          | _ -> None);
    ]

(* pad(pad(x, d, b1, a1), d, b2, a2) = pad(x, d, b1 + b2, a1 + a2). *)
let pad_of_pad =
  Lemma.make ~klass:Lemma.Clean "pad-of-pad"
    [
      Rule.rewrite_to "pad-of-pad"
        (fam "pad" ~bind:"outer" [ fam "pad" ~bind:"inner" [ v "x" ] ])
        (fun _g _root subst ->
          match (Subst.op subst "outer", Subst.op subst "inner") with
          | ( Op.Pad { dim = d2; before = b2; after = a2 },
              Op.Pad { dim = d1; before = b1; after = a1 } ) ->
              let* () = guard (d1 = d2) in
              Some
                (p
                   (Op.Pad
                      {
                        dim = d1;
                        before = Symdim.add b1 b2;
                        after = Symdim.add a1 a2;
                      })
                   [ v "x" ])
          | _ -> None);
    ]

(* --- pad -------------------------------------------------------------- *)

(* Verifier refinement: constrain the sampled slice window to lie inside
   the unpadded region, so the rule's guards hold in some scenario. *)
let slice_of_pad_refine ctx store =
  match (ctx.Lemma.op_of "sl", ctx.Lemma.op_of "pd") with
  | ( Some (Op.Slice { start; stop; _ }),
      Some (Op.Pad { dim; before; _ }) ) -> (
      match ctx.Lemma.shape_of "x" with
      | Some sx when dim < Shape.rank sx ->
          let size = Shape.dim sx dim in
          let store =
            Constraint_store.add_ge store (Symdim.sub start before)
          in
          Constraint_store.add_ge store
            (Symdim.sub (Symdim.add before size) stop)
      | _ -> store)
  | _ -> store

let slice_of_pad =
  Lemma.make ~klass:Lemma.Clean
    ~hints:[ Lemma.Refine slice_of_pad_refine ]
    "slice-of-pad"
    [
      Rule.rewrite_to "slice-of-pad"
        (fam "slice" ~bind:"sl" [ fam "pad" ~bind:"pd" [ v "x" ] ])
        (fun g _root subst ->
          let* sdim, start, stop = slice_attrs (Subst.op subst "sl") in
          match Subst.op subst "pd" with
          | Op.Pad { dim; before; _ } ->
              let* () = guard (sdim = dim) in
              let* size = dim_of_var g subst "x" dim in
              (* The slice must lie inside the original (unpadded) region. *)
              let* () = guard (dle g before start) in
              let* () = guard (dle g stop (Symdim.add before size)) in
              Some
                (p
                   (Op.Slice
                      {
                        dim;
                        start = Symdim.sub start before;
                        stop = Symdim.sub stop before;
                      })
                   [ v "x" ])
          | _ -> None);
    ]

(* --- reshape and identity -------------------------------------------- *)

let reshape_of_reshape =
  Lemma.make ~klass:Lemma.Clean "reshape-of-reshape"
    [
      Rule.rewrite_to "reshape-of-reshape"
        (fam "reshape" ~bind:"outer" [ fam "reshape" ~bind:"inner" [ v "x" ] ])
        (fun _g _root subst ->
          match Subst.op subst "outer" with
          | Op.Reshape { shape } -> Some (p (Op.Reshape { shape }) [ v "x" ])
          | _ -> None);
    ]

let reshape_identity =
  Lemma.make ~klass:Lemma.Clean "reshape-identity"
    [
      Rule.rewrite_to "reshape-identity"
        (fam "reshape" ~bind:"rs" [ v "x" ])
        (fun g _root subst ->
          match (Subst.op subst "rs", shape_of_var g subst "x") with
          | Op.Reshape { shape }, Some xshape ->
              let* () = guard (Shape.equal (Egraph.constraints g) shape xshape) in
              Some (v "x")
          | _ -> None);
    ]

let identity_elim =
  Lemma.make ~klass:Lemma.Clean "identity-elim"
    [ Rule.make "identity-elim" (p Op.Identity [ v "x" ]) (v "x") ]

let lemmas =
  [
    slice_of_concat;
    slice_of_slice;
    slice_full_range;
    slices_cover;
    concat_flatten;
    concat_group;
    transpose_involution;
    transpose_of_concat;
    transpose_slice;
    transpose_pad;
    pad_of_pad;
    slice_of_pad;
    reshape_of_reshape;
    reshape_identity;
    identity_elim;
  ]

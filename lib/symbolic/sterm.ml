type reduction = Rsum | Rmax

type index = I of Symdim.t | S of t

and t =
  | Access of string * index list
  | Cst of Rat.t
  | CstF of float
  | DimV of Symdim.t
  | Lin of (Rat.t * t) list * Rat.t
  | Mul of t list
  | App of string * t list
  | Max of t list
  | Red of reduction * string * Symdim.t * t
  | Sel of Symdim.t * t * t
  | DivD of t * Symdim.t list

let binder_prefix = "!k"
let is_binder_sym s = String.length s >= 2 && s.[0] = '!' && s.[1] = 'k'

(* --- raw constructors --------------------------------------------------- *)

let access name idx = Access (name, idx)
let cst_int i = Cst (Rat.of_int i)
let add a b = Lin ([ (Rat.one, a); (Rat.one, b) ], Rat.zero)
let sub a b = Lin ([ (Rat.one, a); (Rat.minus_one, b) ], Rat.zero)
let neg a = Lin ([ (Rat.minus_one, a) ], Rat.zero)
let scale r a = Lin ([ (r, a) ], Rat.zero)
let mul a b = Mul [ a; b ]
let app f args = App (f, args)
let max2 a b = Max [ a; b ]
let sel ~cond a b = Sel (cond, a, b)
let div_dims a ds = DivD (a, ds)
let sum_over v n body = Red (Rsum, v, n, body)
let max_over v n body = Red (Rmax, v, n, body)

(* --- total order -------------------------------------------------------- *)

let tag = function
  | Access _ -> 0
  | Cst _ -> 1
  | CstF _ -> 2
  | DimV _ -> 3
  | Lin _ -> 4
  | Mul _ -> 5
  | App _ -> 6
  | Max _ -> 7
  | Red _ -> 8
  | Sel _ -> 9
  | DivD _ -> 10

let rec compare a b =
  match (a, b) with
  | Access (n1, i1), Access (n2, i2) -> (
      match String.compare n1 n2 with
      | 0 -> compare_list compare_index i1 i2
      | c -> c)
  | Cst r1, Cst r2 -> Rat.compare r1 r2
  | CstF f1, CstF f2 -> Float.compare f1 f2
  | DimV d1, DimV d2 -> Symdim.compare d1 d2
  | Lin (t1, c1), Lin (t2, c2) -> (
      match compare_list compare_term t1 t2 with
      | 0 -> Rat.compare c1 c2
      | c -> c)
  | Mul f1, Mul f2 | Max f1, Max f2 -> compare_list compare f1 f2
  | App (f1, a1), App (f2, a2) -> (
      match String.compare f1 f2 with
      | 0 -> compare_list compare a1 a2
      | c -> c)
  | Red (k1, v1, n1, b1), Red (k2, v2, n2, b2) -> (
      match Stdlib.compare k1 k2 with
      | 0 -> (
          match String.compare v1 v2 with
          | 0 -> (
              match Symdim.compare n1 n2 with 0 -> compare b1 b2 | c -> c)
          | c -> c)
      | c -> c)
  | Sel (c1, a1, b1), Sel (c2, a2, b2) -> (
      match Symdim.compare c1 c2 with
      | 0 -> ( match compare a1 a2 with 0 -> compare b1 b2 | c -> c)
      | c -> c)
  | DivD (u1, d1), DivD (u2, d2) -> (
      match compare u1 u2 with
      | 0 -> compare_list Symdim.compare d1 d2
      | c -> c)
  | _ -> Stdlib.compare (tag a) (tag b)

and compare_index x y =
  match (x, y) with
  | I a, I b -> Symdim.compare a b
  | S a, S b -> compare a b
  | I _, S _ -> -1
  | S _, I _ -> 1

and compare_term (c1, t1) (c2, t2) =
  match compare t1 t2 with 0 -> Rat.compare c1 c2 | c -> c

and compare_list : 'a. ('a -> 'a -> int) -> 'a list -> 'a list -> int =
 fun cmp l1 l2 ->
  match (l1, l2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys -> ( match cmp x y with 0 -> compare_list cmp xs ys | c -> c)

let equal_syntactic a b = compare a b = 0

(* --- symbol occurrence and substitution --------------------------------- *)

let rec mentions_sym v t =
  let in_dim d = Symdim.coeff d v <> 0 in
  match t with
  | Access (_, idx) ->
      List.exists (function I d -> in_dim d | S s -> mentions_sym v s) idx
  | Cst _ | CstF _ -> false
  | DimV d -> in_dim d
  | Lin (ts, _) -> List.exists (fun (_, x) -> mentions_sym v x) ts
  | Mul fs | App (_, fs) | Max fs -> List.exists (mentions_sym v) fs
  | Red (_, _, n, b) -> in_dim n || mentions_sym v b
  | Sel (c, a, b) -> in_dim c || mentions_sym v a || mentions_sym v b
  | DivD (u, ds) -> mentions_sym v u || List.exists in_dim ds

(* Substitute the symbol [v] by the affine form [d] everywhere. *)
let rec subst_sym v d t =
  let sb e = Symdim.subst (fun s -> if String.equal s v then Some d else None) e in
  match t with
  | Access (n, idx) ->
      Access
        (n, List.map (function I e -> I (sb e) | S s -> S (subst_sym v d s)) idx)
  | Cst _ | CstF _ -> t
  | DimV e -> DimV (sb e)
  | Lin (ts, c0) -> Lin (List.map (fun (c, x) -> (c, subst_sym v d x)) ts, c0)
  | Mul fs -> Mul (List.map (subst_sym v d) fs)
  | App (f, args) -> App (f, List.map (subst_sym v d) args)
  | Max ms -> Max (List.map (subst_sym v d) ms)
  | Red (k, w, n, b) -> Red (k, w, sb n, subst_sym v d b)
  | Sel (c, a, b) -> Sel (sb c, subst_sym v d a, subst_sym v d b)
  | DivD (u, ds) -> DivD (subst_sym v d u, List.map sb ds)

(* --- normalization ------------------------------------------------------ *)

let flip_cond c = Symdim.sub (Symdim.neg c) Symdim.one

let rec go store t =
  match t with
  | Access (n, idx) ->
      Access
        (n, List.map (function I d -> I d | S s -> S (go store s)) idx)
  | Cst _ | CstF _ -> t
  | DimV d ->
      if Symdim.is_const d then Cst (Rat.of_int (Symdim.const_part d))
      else DimV d
  | Lin (ts, c0) -> mk_lin (List.map (fun (c, x) -> (c, go store x)) ts) c0
  | Mul fs -> mk_mul store (List.map (go store) fs)
  | App (f, args) -> App (f, List.map (go store) args)
  | Max ms -> mk_max (List.map (go store) ms)
  | DivD (u, ds) -> mk_divd store (go store u) ds
  | Sel (c, a, b) -> mk_sel store c (go store a) (go store b)
  | Red (k, v, n, body) ->
      let sv = Symdim.sym v in
      let store_v =
        Constraint_store.add_ge
          (Constraint_store.add_ge store sv)
          (Symdim.sub (Symdim.sub n sv) Symdim.one)
      in
      mk_red store k v n (go store_v body)

and mk_lin terms const =
  let atoms = ref [] and const = ref const and dims = ref Symdim.zero in
  let rec push c t =
    if Rat.sign c = 0 then ()
    else
      match t with
      | Cst r -> const := Rat.add !const (Rat.mul c r)
      | Lin (ts, c0) ->
          const := Rat.add !const (Rat.mul c c0);
          List.iter (fun (ci, ti) -> push (Rat.mul c ci) ti) ts
      | DimV d when Rat.is_integer c ->
          dims := Symdim.add !dims (Symdim.mul_int (Rat.num c) d)
      | t -> atoms := (c, t) :: !atoms
  in
  List.iter (fun (c, t) -> push c t) terms;
  let k = Symdim.const_part !dims in
  const := Rat.add !const (Rat.of_int k);
  let dsym = Symdim.sub !dims (Symdim.of_int k) in
  if not (Symdim.is_const dsym) then atoms := (Rat.one, DimV dsym) :: !atoms;
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) !atoms in
  let merged =
    List.fold_left
      (fun acc (c, t) ->
        match acc with
        | (c', t') :: rest when compare t t' = 0 -> (Rat.add c c', t) :: rest
        | _ -> (c, t) :: acc)
      [] sorted
  in
  let merged = List.rev (List.filter (fun (c, _) -> Rat.sign c <> 0) merged) in
  match (merged, Rat.sign !const) with
  | [], _ -> Cst !const
  | [ (c, t) ], 0 when Rat.equal c Rat.one -> t
  | ts, _ -> Lin (ts, !const)

and mk_mul store factors =
  let rat = ref Rat.one and atoms = ref [] and dens = ref [] in
  let rec push t =
    match t with
    | Cst r -> rat := Rat.mul !rat r
    | Mul fs -> List.iter push fs
    | Lin ([ (c, x) ], c0) when Rat.sign c0 = 0 ->
        rat := Rat.mul !rat c;
        push x
    | DivD (u, ds) ->
        dens := ds @ !dens;
        push u
    | t -> atoms := t :: !atoms
  in
  List.iter push factors;
  if Rat.sign !rat = 0 then Cst Rat.zero
  else begin
    (* cancel dimension-valued factors against denominators *)
    let remaining_dens = ref !dens in
    let kept =
      List.filter
        (fun a ->
          match a with
          | DimV d -> (
              match
                List.partition (fun e -> Decide.prove_eq store d e)
                  !remaining_dens
              with
              | hit :: rest_hits, others ->
                  remaining_dens := rest_hits @ others;
                  ignore hit;
                  false
              | [], _ -> true)
          | _ -> true)
        !atoms
    in
    let kept = List.sort compare kept in
    let base =
      match kept with [] -> Cst Rat.one | [ a ] -> a | l -> Mul l
    in
    let dens = List.sort Symdim.compare !remaining_dens in
    let t =
      match (base, dens) with
      | b, [] -> b
      | Cst r, ds ->
          rat := Rat.mul !rat r;
          DivD (Cst Rat.one, ds)
      | b, ds -> DivD (b, ds)
    in
    if Rat.equal !rat Rat.one then t else mk_lin [ (!rat, t) ] Rat.zero
  end

and mk_divd store u ds =
  let rat = ref Rat.one in
  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b) in
  let ds =
    List.filter_map
      (fun d ->
        match Symdim.to_int d with
        | Some k when k <> 0 ->
            rat := Rat.mul !rat (Rat.make 1 k);
            None
        | Some _ -> Some d
        | None -> (
            (* factor the integer content out of an affine dim, so that
               1/(2c) and (1/2)(1/c) normalize identically *)
            let g =
              List.fold_left
                (fun acc s -> gcd acc (Symdim.coeff d s))
                (Symdim.const_part d) (Symdim.symbols d)
            in
            if g > 1 then
              match Symdim.div_int d g with
              | Some d' ->
                  rat := Rat.mul !rat (Rat.make 1 g);
                  Some d'
              | None -> Some d
            else Some d))
      ds
  in
  let wrap t =
    if Rat.equal !rat Rat.one then t else mk_lin [ (!rat, t) ] Rat.zero
  in
  if ds = [] then wrap u
  else
    match u with
    | Cst r when Rat.sign r = 0 -> Cst Rat.zero
    | Lin (ts, c0) ->
        wrap
          (mk_lin
             (List.map (fun (c, t) -> (c, mk_divd store t ds)) ts
             @ [ (c0, mk_divd store (Cst Rat.one) ds) ])
             Rat.zero)
    | u -> wrap (mk_mul store [ u; DivD (Cst Rat.one, ds) ])

and mk_max ms =
  let rec flat acc = function
    | Max xs -> List.fold_left flat acc xs
    | x -> x :: acc
  in
  let ms = List.fold_left flat [] ms in
  let ms = List.sort_uniq compare ms in
  match ms with [ m ] -> m | ms -> Max ms

and mk_sel store c a b =
  if compare a b = 0 then a
  else
    match Symdim.to_int c with
    | Some k -> if k >= 0 then a else b
    | None ->
        if Decide.implies_ge store c = Decide.Proved then a
        else
          let fc = flip_cond c in
          if Decide.implies_ge store fc = Decide.Proved then b
          else if Symdim.compare c fc > 0 then Sel (fc, b, a)
          else Sel (c, a, b)

and mk_red store k v n body =
  match Symdim.to_int n with
  | Some k0 when k0 <= 0 -> (
      match k with
      | Rsum -> Cst Rat.zero
      | Rmax -> go store (subst_sym v Symdim.zero body))
  | Some 1 -> go store (subst_sym v Symdim.zero body)
  | _ -> (
      if not (mentions_sym v body) then
        match k with
        | Rsum -> mk_mul store [ DimV n; body ]
        | Rmax -> body
      else
        match (k, body) with
        | Rsum, Lin (ts, c0) ->
            mk_lin
              (List.map (fun (c, t) -> (c, mk_red store Rsum v n t)) ts
              @ [ (c0, DimV n) ])
              Rat.zero
        | _ -> (
            match try_split store k v n body with
            | Some t -> t
            | None -> Red (k, v, n, body)))

(* Split a reduction at a selection boundary: a [Sel] in the body whose
   condition has coefficient +-1 on the binder partitions [0, n) at an
   affine threshold; when the store proves the threshold in range the
   reduction becomes the combination of the two resolved halves. *)
and try_split store k v n body =
  let cands = ref [] in
  let rec scan t =
    match t with
    | Sel (c, a, b) ->
        let alpha = Symdim.coeff c v in
        if alpha = 1 || alpha = -1 then
          if not (List.exists (Symdim.equal c) !cands) then cands := c :: !cands;
        scan a;
        scan b
    | Lin (ts, _) -> List.iter (fun (_, x) -> scan x) ts
    | Mul fs | App (_, fs) | Max fs -> List.iter scan fs
    | Red (_, _, _, b) -> scan b
    | DivD (u, _) -> scan u
    | Access (_, idx) -> List.iter (function I _ -> () | S s -> scan s) idx
    | Cst _ | CstF _ | DimV _ -> ()
  in
  scan body;
  let replace cond branch t =
    let rec rep t =
      match t with
      | Sel (c, a, b) when Symdim.equal c cond -> (
          match branch with `T -> rep a | `F -> rep b)
      | Sel (c, a, b) -> Sel (c, rep a, rep b)
      | Lin (ts, c0) -> Lin (List.map (fun (c, x) -> (c, rep x)) ts, c0)
      | Mul fs -> Mul (List.map rep fs)
      | App (f, args) -> App (f, List.map rep args)
      | Max ms -> Max (List.map rep ms)
      | Red (k, w, m, b) -> Red (k, w, m, rep b)
      | DivD (u, ds) -> DivD (rep u, ds)
      | Access (n, idx) ->
          Access (n, List.map (function I d -> I d | S s -> S (rep s)) idx)
      | Cst _ | CstF _ | DimV _ -> t
    in
    rep t
  in
  let try_cand c =
    (* the threshold may not depend on this or any deeper binder *)
    let scoped =
      List.for_all
        (fun s -> String.equal s v || not (is_binder_sym s))
        (Symdim.symbols c)
    in
    if not scoped then None
    else
      let alpha = Symdim.coeff c v in
      let rest = Symdim.sub c (Symdim.mul_int alpha (Symdim.sym v)) in
      let thr, lower_branch, upper_branch =
        if alpha = -1 then (Symdim.add rest Symdim.one, `T, `F)
        else (Symdim.neg rest, `F, `T)
      in
      if Decide.prove_le store thr Symdim.zero then
        Some (go store (Red (k, v, n, replace c upper_branch body)))
      else if Decide.prove_le store n thr then
        Some (go store (Red (k, v, n, replace c lower_branch body)))
      else
        let in_range =
          match k with
          | Rsum ->
              Decide.implies_ge store thr = Decide.Proved
              && Decide.implies_ge store (Symdim.sub n thr) = Decide.Proved
          | Rmax ->
              Decide.prove_le store Symdim.one thr
              && Decide.prove_le store Symdim.one (Symdim.sub n thr)
        in
        if not in_range then None
        else
          let lower = replace c lower_branch body in
          let upper =
            subst_sym v
              (Symdim.add (Symdim.sym v) thr)
              (replace c upper_branch body)
          in
          let p1 = go store (Red (k, v, thr, lower)) in
          let p2 = go store (Red (k, v, Symdim.sub n thr, upper)) in
          match k with
          | Rsum -> Some (mk_lin [ (Rat.one, p1); (Rat.one, p2) ] Rat.zero)
          | Rmax -> Some (mk_max [ p1; p2 ])
  in
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> try_cand c)
    None (List.rev !cands)

(* Canonical depth-indexed binder names, so two independently built
   terms become comparable. *)
let rec rename_binders depth t =
  match t with
  | Red (k, v, n, body) ->
      let v' = Printf.sprintf "%s%d" binder_prefix depth in
      let body =
        if String.equal v v' then body else subst_sym v (Symdim.sym v') body
      in
      Red (k, v', n, rename_binders (depth + 1) body)
  | Access (n, idx) ->
      Access
        ( n,
          List.map
            (function I d -> I d | S s -> S (rename_binders depth s))
            idx )
  | Cst _ | CstF _ | DimV _ -> t
  | Lin (ts, c0) ->
      Lin (List.map (fun (c, x) -> (c, rename_binders depth x)) ts, c0)
  | Mul fs -> Mul (List.map (rename_binders depth) fs)
  | App (f, args) -> App (f, List.map (rename_binders depth) args)
  | Max ms -> Max (List.map (rename_binders depth) ms)
  | Sel (c, a, b) -> Sel (c, rename_binders depth a, rename_binders depth b)
  | DivD (u, ds) -> DivD (rename_binders depth u, ds)

let norm store t = rename_binders 0 (go store t)

(* --- equality ----------------------------------------------------------- *)

(* Atomic: freshness is the only requirement, and concurrent checks
   (the daemon's handler threads) mint binders concurrently. *)
let fresh_counter = Atomic.make 0

let fresh_binder () =
  Printf.sprintf "%sq%d" binder_prefix (Atomic.fetch_and_add fresh_counter 1 + 1)

let rec equal_t store a b =
  compare a b = 0
  ||
  match (a, b) with
  | Cst r1, Cst r2 -> Rat.equal r1 r2
  | CstF f1, CstF f2 -> Float.equal f1 f2
  | DimV d1, DimV d2 -> Decide.prove_eq store d1 d2
  | DimV d, Cst r | Cst r, DimV d ->
      Rat.is_integer r && Decide.prove_eq store d (Symdim.of_int (Rat.num r))
  | Access (n1, i1), Access (n2, i2) ->
      String.equal n1 n2
      && List.length i1 = List.length i2
      && List.for_all2
           (fun x y ->
             match (x, y) with
             | I d1, I d2 -> Decide.prove_eq store d1 d2
             | S s1, S s2 -> equal_t store s1 s2
             | _ -> false)
           i1 i2
  | App (f1, a1), App (f2, a2) ->
      String.equal f1 f2
      && List.length a1 = List.length a2
      && List.for_all2 (equal_t store) a1 a2
  | Max m1, Max m2 -> multiset_equal store m1 m2
  | Mul f1, Mul f2 -> multiset_equal store f1 f2
  | Sel (c1, a1, b1), Sel (c2, a2, b2) ->
      (Decide.prove_eq store c1 c2
      && equal_t store a1 a2 && equal_t store b1 b2)
      || Decide.prove_eq store c1 (flip_cond c2)
         && equal_t store a1 b2 && equal_t store b1 a2
  | Red (k1, v1, n1, b1), Red (k2, v2, n2, b2) ->
      k1 = k2
      && Decide.prove_eq store n1 n2
      &&
      let w = fresh_binder () in
      let sw = Symdim.sym w in
      let store' =
        Constraint_store.add_ge
          (Constraint_store.add_ge store sw)
          (Symdim.sub (Symdim.sub n1 sw) Symdim.one)
      in
      equal_t store' (subst_sym v1 sw b1) (subst_sym v2 sw b2)
  | (Lin _ | DivD _), _ | _, (Lin _ | DivD _) -> terms_equal store a b
  | _ -> false

and multiset_equal store l1 l2 =
  List.length l1 = List.length l2
  &&
  let rec consume remaining = function
    | [] -> remaining = []
    | x :: xs -> (
        let rec pick acc = function
          | [] -> None
          | y :: ys ->
              if equal_t store x y then Some (List.rev_append acc ys)
              else pick (y :: acc) ys
        in
        match pick [] remaining with
        | Some rest -> consume rest xs
        | None -> false)
  in
  consume l2 l1

(* Sum comparison with divisor-aware term matching: [c1/prod d1] equals
   [c2/prod d2] on equal bodies when the cross products agree. *)
and terms_equal store a b =
  let split (c, t) = match t with DivD (u, ds) -> (c, ds, u) | t -> (c, [], t) in
  let decompose t =
    match t with
    | Lin (ts, c0) -> (List.map split ts, c0)
    | Cst r -> ([], r)
    | t -> ([ split (Rat.one, t) ], Rat.zero)
  in
  let t1, c1 = decompose a and t2, c2 = decompose b in
  let with_const (ts, c) =
    if Rat.sign c = 0 then ts else (c, [], Cst Rat.one) :: ts
  in
  let t1 = with_const (t1, c1) and t2 = with_const (t2, c2) in
  let product ds =
    List.fold_left
      (fun acc d -> match acc with None -> None | Some p -> Symdim.mul p d)
      (Some Symdim.one) ds
  in
  let term_match (r1, ds1, u1) (r2, ds2, u2) =
    equal_t store u1 u2
    &&
    match (product ds1, product ds2) with
    | Some p1, Some p2 ->
        Decide.prove_eq store
          (Symdim.mul_int (Rat.num r1 * Rat.den r2) p2)
          (Symdim.mul_int (Rat.num r2 * Rat.den r1) p1)
    | _ ->
        Rat.equal r1 r2
        && List.length ds1 = List.length ds2
        &&
        let rec consume remaining = function
          | [] -> remaining = []
          | d :: rest -> (
              let rec pick acc = function
                | [] -> None
                | e :: es ->
                    if Decide.prove_eq store d e then
                      Some (List.rev_append acc es)
                    else pick (e :: acc) es
              in
              match pick [] remaining with
              | Some left -> consume left rest
              | None -> false)
        in
        consume ds2 ds1
  in
  List.length t1 = List.length t2
  &&
  let rec consume remaining = function
    | [] -> remaining = []
    | x :: xs -> (
        let rec pick acc = function
          | [] -> None
          | y :: ys ->
              if term_match x y then Some (List.rev_append acc ys)
              else pick (y :: acc) ys
        in
        match pick [] remaining with
        | Some rest -> consume rest xs
        | None -> false)
  in
  consume t2 t1

let collect_free_sel_conds t =
  let out = ref [] in
  let rec scan t =
    match t with
    | Sel (c, a, b) ->
        if
          List.for_all (fun s -> not (is_binder_sym s)) (Symdim.symbols c)
          && not (List.exists (Symdim.equal c) !out)
        then out := c :: !out;
        scan a;
        scan b
    | Lin (ts, _) -> List.iter (fun (_, x) -> scan x) ts
    | Mul fs | App (_, fs) | Max fs -> List.iter scan fs
    | Red (_, _, _, b) -> scan b
    | DivD (u, _) -> scan u
    | Access (_, idx) -> List.iter (function I _ -> () | S s -> scan s) idx
    | Cst _ | CstF _ | DimV _ -> ()
  in
  scan t;
  List.rev !out

let rec prove depth store a b =
  let na = norm store a and nb = norm store b in
  if equal_t store na nb then true
  else if depth <= 0 then false
  else
    match collect_free_sel_conds na @ collect_free_sel_conds nb with
    | [] -> false
    | c :: _ ->
        let branch st =
          (not (Decide.feasible (Constraint_store.inequalities st)))
          || prove (depth - 1) st na nb
        in
        branch (Constraint_store.add_ge store c)
        && branch (Constraint_store.add_ge store (flip_cond c))

let prove_equal store a b = prove 12 store a b

(* --- printing ----------------------------------------------------------- *)

let rec pp ppf t =
  match t with
  | Access (n, idx) ->
      Fmt.pf ppf "%s[%a]" n Fmt.(list ~sep:comma pp_index) idx
  | Cst r -> Rat.pp ppf r
  | CstF f -> Fmt.float ppf f
  | DimV d -> Fmt.pf ppf "#%a" Symdim.pp d
  | Lin (ts, c0) ->
      let pp_term ppf (c, t) =
        if Rat.equal c Rat.one then pp ppf t
        else Fmt.pf ppf "%a*%a" Rat.pp c pp t
      in
      Fmt.pf ppf "(+ %a" Fmt.(list ~sep:sp pp_term) ts;
      if Rat.sign c0 <> 0 then Fmt.pf ppf " %a" Rat.pp c0;
      Fmt.pf ppf ")"
  | Mul fs -> Fmt.pf ppf "(* %a)" Fmt.(list ~sep:sp pp) fs
  | App (f, args) -> Fmt.pf ppf "(%s %a)" f Fmt.(list ~sep:sp pp) args
  | Max ms -> Fmt.pf ppf "(max %a)" Fmt.(list ~sep:sp pp) ms
  | Red (k, v, n, b) ->
      Fmt.pf ppf "(%s %s<%a %a)"
        (match k with Rsum -> "sum" | Rmax -> "rmax")
        v Symdim.pp n pp b
  | Sel (c, a, b) ->
      Fmt.pf ppf "(if %a>=0 %a %a)" Symdim.pp c pp a pp b
  | DivD (u, ds) ->
      Fmt.pf ppf "(/ %a %a)" pp u Fmt.(list ~sep:sp Symdim.pp) ds

and pp_index ppf = function
  | I d -> Symdim.pp ppf d
  | S s -> Fmt.pf ppf "@@%a" pp s

let to_string t = Fmt.str "%a" pp t

type applier =
  | Syntactic of Pattern.t
  | Conditional of
      (Egraph.t -> Id.t -> Subst.t -> (Pattern.t * Pattern.t) list)

type t = {
  name : string;
  lhs : Pattern.t;
  applier : applier;
  constrained : bool;
  nonlocal : bool;
}

let make ?(constrained = false) ?(nonlocal = false) name lhs rhs =
  { name; lhs; applier = Syntactic rhs; constrained; nonlocal }

let make_dyn ?(constrained = false) ?(nonlocal = false) name lhs f =
  { name; lhs; applier = Conditional f; constrained; nonlocal }

let rewrite_to ?constrained ?nonlocal name lhs f =
  let applier g root subst =
    match f g root subst with
    | Some rhs -> [ (Pattern.c root, rhs) ]
    | None -> []
  in
  make_dyn ?constrained ?nonlocal name lhs applier


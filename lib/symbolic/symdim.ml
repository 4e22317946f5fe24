module Smap = Map.Make (String)

(* Invariant: no zero coefficients in [terms]. *)
type t = { const : int; terms : int Smap.t }

let of_int n = { const = n; terms = Smap.empty }
let zero = of_int 0
let one = of_int 1
let sym name = { const = 0; terms = Smap.singleton name 1 }

let add a b =
  let terms =
    Smap.union (fun _ ca cb -> if ca + cb = 0 then None else Some (ca + cb))
      a.terms b.terms
  in
  { const = a.const + b.const; terms }

let neg a = { const = -a.const; terms = Smap.map (fun c -> -c) a.terms }
let sub a b = add a (neg b)

let mul_int k a =
  if k = 0 then zero
  else { const = k * a.const; terms = Smap.map (fun c -> k * c) a.terms }

let is_const a = Smap.is_empty a.terms
let to_int a = if is_const a then Some a.const else None

let mul a b =
  match (to_int a, to_int b) with
  | Some ka, _ -> Some (mul_int ka b)
  | _, Some kb -> Some (mul_int kb a)
  | None, None -> None

let div_int a k =
  if k = 0 then None
  else if a.const mod k <> 0 then None
  else
    let exception Not_exact in
    match
      Smap.map (fun c -> if c mod k = 0 then c / k else raise Not_exact) a.terms
    with
    | terms -> Some { const = a.const / k; terms }
    | exception Not_exact -> None

let const_part a = a.const
let symbols a = Smap.bindings a.terms |> List.map fst
let coeff a s = match Smap.find_opt s a.terms with Some c -> c | None -> 0

let compare a b =
  match Int.compare a.const b.const with
  | 0 -> Smap.compare Int.compare a.terms b.terms
  | c -> c

let equal a b = compare a b = 0

let hash a =
  Smap.fold
    (fun s c acc -> (acc * 31) + Hashtbl.hash (s, c))
    a.terms (Hashtbl.hash a.const)

let eval env a =
  Smap.fold (fun s c acc -> acc + (c * env s)) a.terms a.const

let subst f a =
  Smap.fold
    (fun s c acc ->
      match f s with
      | Some e -> add acc (mul_int c e)
      | None -> add acc (mul_int c (sym s)))
    a.terms (of_int a.const)

(* Terms in symbol order, each signed and with its coefficient unless
   that is 1, then a nonzero constant: [2n - m + 3], [-n - 1]. Built in
   a buffer, byte for byte what the [Format] printer it replaced wrote
   (kept in test/test_symbolic.ml); every fingerprint env renders each
   tensor's shape through it. *)
let to_string a =
  if is_const a then string_of_int a.const
  else begin
    let b = Buffer.create 16 in
    let first = ref true in
    Smap.iter
      (fun s c ->
        Buffer.add_string b
          (if !first then if c < 0 then "-" else ""
           else if c < 0 then " - "
           else " + ");
        first := false;
        let c = abs c in
        if c <> 1 then Buffer.add_string b (string_of_int c);
        Buffer.add_string b s)
      a.terms;
    if a.const > 0 then begin
      Buffer.add_string b " + ";
      Buffer.add_string b (string_of_int a.const)
    end
    else if a.const < 0 then begin
      Buffer.add_string b " - ";
      Buffer.add_string b (string_of_int (-a.const))
    end;
    Buffer.contents b
  end

let pp ppf a = Fmt.string ppf (to_string a)

type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

let needs_quotes s =
  s = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '(' || c = ')' || c = '"' || c = '\n' || c = '\t'
         || c = '\r' || c = ';')
       s

(* What [%S] prints. *)
let quote s = "\"" ^ String.escaped s ^ "\""

(* --- printing -------------------------------------------------------- *)

(* [to_string] writes the bytes [Format.asprintf] writes for a term
   whose atoms are printed as strings (with [%S] when [needs_quotes])
   and whose lists are [@[<hov 1>(%a)@]] with [Format.pp_print_space]
   between items, with [Format]'s default margin 78 and maximum
   indentation 68. Every digest and id of a certificate rests on these
   bytes, so this is [Stdlib.Format]'s engine (format.ml, OCaml 5.1),
   reduced to the four tokens that layout uses: called directly,
   [Format] takes twice the time and eight times the allocation
   (DESIGN.md, "Rendering and hashing kernels").

   Tokens wait in a queue until their size is known. A text's size is
   its length. A box's size, the length of everything it holds, is
   known at its close, and a space's, the length up to the next space
   of its box or the box's close, at that point. The scan stack holds
   the box and space still being measured. When the queued text
   reaches the room left on the line, the oldest token prints anyway,
   with an infinite size. A box that fits the room left on its line
   prints every space as one blank; any other box breaks its line at a
   space whose size passes the room left, indenting one column past
   its opening parenthesis (at most [max_indent]), and a box opened
   past [max_indent] first breaks its enclosing box's line. *)

let margin = 78
let max_indent = 68

(* [Format]'s size of a token printed before its size is known. *)
let infinite_size = 1_000_000_010

(* Token kinds. A token's length is that of its text: a space's is its
   blank, a box mark's is empty. *)
let text = 0
let opening = 1
let closing = 2
let space = 3

(* The width a box that fits its line keeps on the box stack. *)
let fits = min_int

type printer = {
  out : Buffer.t;
  (* The queue: token [n], counting every token queued, sits at
     [n land (capacity - 1)] while [first <= n < next]. Sizes are
     negative until known. *)
  mutable kinds : int array;
  mutable sizes : int array;
  mutable texts : string array;
  mutable first : int;
  mutable next : int;
  (* The scan stack: each entry's [right_total] when it was queued, its
     kind and its token. Entry 0 never pops, and a stale top, one
     whose token has printed, clears the stack down to it. *)
  mutable scan_totals : int array;
  mutable scan_kinds : int array;
  mutable scan_tokens : int array;
  mutable scan_top : int;
  (* The box stack: the width of each box being printed, or [fits].
     The root box [Format] opens before any token is always printed
     first, as a breaking box of the whole margin. *)
  mutable widths : int array;
  mutable depth : int;
  mutable space_left : int;
  (* One more than the lengths of the tokens printed and queued. *)
  mutable left_total : int;
  mutable right_total : int;
}

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let create () =
  {
    out = Buffer.create 1024;
    kinds = Array.make 64 0;
    sizes = Array.make 64 0;
    texts = Array.make 64 "";
    first = 0;
    next = 0;
    scan_totals = Array.make 16 (-1);
    scan_kinds = Array.make 16 text;
    scan_tokens = Array.make 16 0;
    scan_top = 0;
    widths = Array.make 16 margin;
    depth = 1;
    space_left = margin;
    left_total = 1;
    right_total = 1;
  }

let blanks = String.make max_indent ' '

let new_line p width =
  Buffer.add_char p.out '\n';
  let indent = min max_indent (margin - width) in
  p.space_left <- margin - indent;
  Buffer.add_substring p.out blanks 0 indent

let print_token p kind size s =
  if kind = text then begin
    p.space_left <- p.space_left - size;
    Buffer.add_string p.out s
  end
  else if kind = opening then begin
    (if margin - p.space_left > max_indent then
       let width = p.widths.(p.depth - 1) in
       if width <> fits && width > p.space_left then new_line p width);
    if p.depth = Array.length p.widths then p.widths <- grow p.widths 0;
    p.widths.(p.depth) <-
      (if size > p.space_left then p.space_left - 1 else fits);
    p.depth <- p.depth + 1
  end
  else if kind = closing then p.depth <- p.depth - 1
  else
    let width = p.widths.(p.depth - 1) in
    if width <> fits && size > p.space_left then new_line p width
    else begin
      p.space_left <- p.space_left - 1;
      Buffer.add_char p.out ' '
    end

let rec advance p =
  if p.first < p.next then begin
    let i = p.first land (Array.length p.sizes - 1) in
    let size = p.sizes.(i) in
    if size >= 0 || p.right_total - p.left_total >= p.space_left then begin
      let s = p.texts.(i) in
      p.first <- p.first + 1;
      print_token p p.kinds.(i) (if size >= 0 then size else infinite_size) s;
      p.left_total <- p.left_total + String.length s;
      advance p
    end
  end

let enqueue p kind size s =
  let capacity = Array.length p.sizes in
  if p.next - p.first = capacity then begin
    let kinds = Array.make (2 * capacity) 0
    and sizes = Array.make (2 * capacity) 0
    and texts = Array.make (2 * capacity) "" in
    for n = p.first to p.next - 1 do
      let i = n land (capacity - 1) and j = n land ((2 * capacity) - 1) in
      kinds.(j) <- p.kinds.(i);
      sizes.(j) <- p.sizes.(i);
      texts.(j) <- p.texts.(i)
    done;
    p.kinds <- kinds;
    p.sizes <- sizes;
    p.texts <- texts
  end;
  let i = p.next land (Array.length p.sizes - 1) in
  p.kinds.(i) <- kind;
  p.sizes.(i) <- size;
  p.texts.(i) <- s;
  p.next <- p.next + 1;
  p.right_total <- p.right_total + String.length s

(* Sizes the space ([~space:true]) or box on top of the scan stack, if
   that is what is there, as everything queued since. A token printed
   since keeps no size. *)
let set_size p ~space:is_space =
  let top = p.scan_top in
  if p.scan_totals.(top) < p.left_total then p.scan_top <- 0
  else
    let kind = p.scan_kinds.(top) in
    if (is_space && kind = space) || ((not is_space) && kind = opening)
    then begin
      let n = p.scan_tokens.(top) in
      if n >= p.first then begin
        let i = n land (Array.length p.sizes - 1) in
        p.sizes.(i) <- p.right_total + p.sizes.(i)
      end;
      p.scan_top <- top - 1
    end

let scan_push p kind n =
  let top = p.scan_top + 1 in
  if top = Array.length p.scan_totals then begin
    p.scan_totals <- grow p.scan_totals 0;
    p.scan_kinds <- grow p.scan_kinds 0;
    p.scan_tokens <- grow p.scan_tokens 0
  end;
  p.scan_totals.(top) <- p.right_total;
  p.scan_kinds.(top) <- kind;
  p.scan_tokens.(top) <- n;
  p.scan_top <- top

let print_text p s =
  enqueue p text (String.length s) s;
  advance p

let print_space p =
  let n = p.next in
  enqueue p space (-p.right_total) " ";
  set_size p ~space:true;
  scan_push p space n

let rec print p = function
  | Atom s ->
      print_text p (if needs_quotes s then quote s else s)
  | List l ->
      let n = p.next in
      enqueue p opening (-p.right_total) "";
      scan_push p opening n;
      print_text p "(";
      (match l with
      | [] -> ()
      | x :: rest ->
          print p x;
          print_items p rest);
      print_text p ")";
      enqueue p closing 0 "";
      set_size p ~space:true;
      set_size p ~space:false

and print_items p = function
  | [] -> ()
  | x :: rest ->
      print_space p;
      print p x;
      print_items p rest

let to_string t =
  let p = create () in
  print p t;
  (* [Format]'s flush: what is still queued prints, tokens of unknown
     size as infinite. *)
  p.right_total <- infinite_size;
  advance p;
  Buffer.contents p.out

let excerpt_bytes = 200

exception Full

let excerpt t =
  let buf = Buffer.create 64 in
  let add s =
    let room = excerpt_bytes - Buffer.length buf in
    if String.length s <= room then Buffer.add_string buf s
    else begin
      Buffer.add_string buf (String.sub s 0 room);
      raise Full
    end
  in
  let rec go = function
    | Atom s when needs_quotes s ->
        (* Escaping never shortens, so a bound-sized prefix suffices. *)
        let s = String.sub s 0 (min (String.length s) excerpt_bytes) in
        add (quote s)
    | Atom s -> add s
    | List l ->
        add "(";
        List.iteri
          (fun i x ->
            if i > 0 then add " ";
            go x)
          l;
        add ")"
  in
  (try go t with Full -> Buffer.add_string buf "...");
  Buffer.contents buf

(* --- parsing ------------------------------------------------------- *)

let max_depth = 1_000

exception Malformed of string

(* One pass over the input, so a fault costs only the input before it:
   a list nesting past [max_depth] is refused at its opening
   parenthesis, however much input follows. *)
let of_string input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise_notrace (Malformed msg) in
  let rec skip_blanks () =
    if !pos < n then
      match input.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_blanks ()
      | ';' ->
          while !pos < n && input.[!pos] <> '\n' do
            incr pos
          done;
          skip_blanks ()
      | _ -> ()
  in
  let buf = Buffer.create 16 in
  (* The atom whose opening quote is at [!pos]. *)
  let quoted () =
    Buffer.clear buf;
    let i = ref (!pos + 1) in
    let closed = ref false in
    while !i < n && not !closed do
      if input.[!i] = '"' then closed := true
      else if input.[!i] = '\\' && !i + 1 < n then begin
        (* Quoted atoms are printed with [String.escaped]; invert the
           OCaml lexical escapes so strings with newlines/tabs
           round-trip (the wire protocol ships rendered reports this
           way). *)
        (match input.[!i + 1] with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | '0' .. '9' when !i + 3 < n ->
            let code =
              try int_of_string (String.sub input (!i + 1) 3)
              with Failure _ -> -1
            in
            if code >= 0 && code <= 255 then begin
              Buffer.add_char buf (Char.chr code);
              i := !i + 2
            end
            else Buffer.add_char buf input.[!i + 1]
        | c -> Buffer.add_char buf c);
        incr i
      end
      else Buffer.add_char buf input.[!i];
      incr i
    done;
    if not !closed then fail "unterminated string";
    pos := !i;
    Buffer.contents buf
  in
  let bare () =
    let start = !pos in
    while
      !pos < n
      &&
      match input.[!pos] with
      | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> false
      | _ -> true
    do
      incr pos
    done;
    String.sub input start (!pos - start)
  in
  (* The term at [!pos], a non-blank byte; [depth] counts the lists
     enclosing it. *)
  let rec term depth =
    match input.[!pos] with
    | '(' ->
        if depth >= max_depth then
          fail (Printf.sprintf "lists nest deeper than %d levels" max_depth);
        incr pos;
        items (depth + 1) []
    | ')' -> fail "unexpected closing parenthesis"
    | '"' -> Atom (quoted ())
    | _ -> Atom (bare ())
  and items depth acc =
    skip_blanks ();
    if !pos >= n then fail "missing closing parenthesis"
    else if input.[!pos] = ')' then begin
      incr pos;
      List (List.rev acc)
    end
    else
      let item = term depth in
      items depth (item :: acc)
  in
  match
    skip_blanks ();
    if !pos >= n then fail "unexpected end of input";
    let t = term 0 in
    skip_blanks ();
    if !pos < n then fail "trailing input after S-expression";
    t
  with
  | t -> Ok t
  | exception Malformed msg -> Error msg

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

(* Two-space indented pretty printer; objects and lists open one level. *)
let to_string_pretty j =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as atom -> emit buf atom
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) x)
          xs;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (depth + 1) v)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* Recursive-descent reader: a number without '.', 'e' or 'E' reads back as
   [Int], any other as [Float]. *)
exception Parse_error of string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "offset %d: %s" !pos what)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () = if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; ws ()) in
  let eat c = ws (); if peek () <> c then fail (Printf.sprintf "expected %C" c); incr pos in
  let word w v =
    let l = String.length w in
    if !pos + l <= n && String.sub s !pos l = w then (pos := !pos + l; v) else fail "bad literal"
  in
  let str () =
    eat '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      if c = '"' then Buffer.contents b
      else begin
        (if c <> '\\' then Buffer.add_char b c
         else begin
           let e = peek () in
           incr pos;
           match e with
           | 'n' -> Buffer.add_char b '\n'
           | 'r' -> Buffer.add_char b '\r'
           | 't' -> Buffer.add_char b '\t'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | '"' | '\\' | '/' -> Buffer.add_char b e
           | 'u' when !pos + 4 <= n -> (
               match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
               | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code); pos := !pos + 4
               | _ -> fail "unsupported \\u escape")
           | _ -> fail "bad escape"
         end);
        go ()
      end
    in
    go ()
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr pos; Obj (items '}' (fun () -> let k = str () in eat ':'; (k, value ())))
    | '[' -> incr pos; List (items ']' value)
    | '"' -> Str (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> (
        let start = !pos in
        while !pos < n && String.contains "+-.eE0123456789" s.[!pos] do incr pos done;
        let lit = String.sub s start (!pos - start) in
        let v =
          if String.exists (fun c -> String.contains ".eE" c) lit then
            Option.map (fun f -> Float f) (float_of_string_opt lit)
          else Option.map (fun i -> Int i) (int_of_string_opt lit)
        in
        match v with Some v -> v | None -> fail "bad value")
  and items : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item -> ws (); if peek () = close then (incr pos; []) else more close item
  and more : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    let x = item () in
    ws ();
    if peek () = ',' then (incr pos; x :: more close item) else (eat close; [ x ])
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None

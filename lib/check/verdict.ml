type t = {
  commits : int;
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
}

let ok t =
  Result.is_ok t.serial && Result.is_ok t.replay && Result.is_ok t.locks
  && match t.static_ with None -> true | Some r -> Result.is_ok r

let of_stream stream ~final =
  let r = Stream.finish stream ~final in
  {
    commits = r.Stream.commits;
    serial = r.Stream.serial;
    replay = r.Stream.replay;
    locks = r.Stream.locks;
    static_ = r.Stream.static_;
  }

(* Each oracle that ran, by report name, with its failure printer. *)
let results t =
  let r pp_err = Result.map_error (fun e fmt -> pp_err fmt e) in
  [
    ("serializability", r Serial.pp_violation t.serial);
    ("replay", r Replay.pp_divergence t.replay);
    ("lock-safety", r Lock_safety.pp_violation t.locks);
  ]
  @ match t.static_ with None -> [] | Some s -> [ ("static-gate", r Staticcheck.Gate.pp_violation s) ]

let oracles t = List.map fst (results t)

let pp fmt t =
  Format.fprintf fmt "@[<v2>check: %d committed attempt(s)%s"
    t.commits
    (if ok t then " — all oracles passed" else "");
  List.iter
    (fun (name, r) ->
      match r with
      | Ok () -> Format.fprintf fmt "@ %-16s PASS" name
      | Error pp_err -> Format.fprintf fmt "@ %-16s FAIL@   @[%t@]" name pp_err)
    (results t);
  Format.fprintf fmt "@]"

let to_string t = Format.asprintf "%a" pp t

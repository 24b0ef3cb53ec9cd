type kind = Rw | Ww | Wr

type violation = {
  earlier : Witness.t;
  later : Witness.t;
  line : Mem.Addr.line;
  kind : kind;
  detail : string;
}

let kind_name = function Rw -> "read-stale (RW)" | Ww -> "write-order (WW)" | Wr -> "future-read (WR)"

let pp_violation fmt v =
  Format.fprintf fmt
    "@[<v2>serializability violation on line %d [%s]:@ earlier: %a@ later:   %a@ %s@ cycle: [%a] \
     -> [%a] (commit order) -> [%a] (dependency)@]"
    v.line (kind_name v.kind) Witness.pp v.earlier Witness.pp v.later v.detail Witness.pp v.earlier
    Witness.pp v.later Witness.pp v.earlier

(* Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) —
   the checksum guarding each frame of the trace container.  Pure
   OCaml, no external deps; values are masked to 32 bits so results are
   identical on 32- and 64-bit hosts. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let mask32 = 0xFFFFFFFF

let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let t = Lazy.force table in
  let c = ref (crc lxor mask32) in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor mask32 land mask32

let string s = update 0 s ~pos:0 ~len:(String.length s)

let to_hex crc = Printf.sprintf "%08x" (crc land mask32)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 && v <= mask32 -> Some v
    | _ -> None

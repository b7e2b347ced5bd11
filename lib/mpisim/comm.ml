type t = {
  id : int;
  members : int array; (* local rank -> world rank *)
  inverse : (int, int) Hashtbl.t; (* world rank -> local rank *)
}

let id t = t.id
let size t = Array.length t.members

let make ~id ~members =
  let inverse = Hashtbl.create (Array.length members) in
  Array.iteri
    (fun local world ->
      if Hashtbl.mem inverse world then
        invalid_arg "Comm.make: duplicate member rank";
      Hashtbl.add inverse world local)
    members;
  { id; members = Array.copy members; inverse }

let world n = make ~id:0 ~members:(Array.init n (fun i -> i))

let world_of_local t r =
  if r < 0 || r >= Array.length t.members then
    invalid_arg
      (Printf.sprintf "Comm.world_of_local: rank %d outside communicator %d (size %d)"
         r t.id (Array.length t.members));
  t.members.(r)

let local_of_world t w = Hashtbl.find_opt t.inverse w

let is_member t ~world = Hashtbl.mem t.inverse world

let members t = Array.copy t.members

let pp ppf t =
  Format.fprintf ppf "comm%d(size=%d)" t.id (Array.length t.members)

(** The resources Na Kika tracks per site (§3.2): CPU, memory and
    bandwidth are renewable — consumption only counts against a site
    while the node is congested; running time and total bytes
    transferred are nonrenewable — all consumption counts. *)

type t = Cpu | Memory | Bandwidth | Running_time | Bytes_transferred

val all : t list

val is_renewable : t -> bool

val to_string : t -> string

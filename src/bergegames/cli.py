"""Command-line interface.

Exit codes are a stable contract:
  0  affirmative result (equilibrium / exists / plain success)
  1  input error (missing file, malformed document or arguments)
  2  unsupported operation for the given game
  3  negative verdict (no equilibrium / not-exists)
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import equilibria, search
from .game import Game, MixedProfile, MixedStrategy, UnsupportedGameError, rational
from .gamefile import BUILTIN_NAMES, GameFormatError, builtin_game, load_game, serialize_game

COORD_NAMES = ("p", "q", "r")


def _tuple_str(items) -> str:
    return "(" + ",".join(map(str, items)) + ")"


def _mixed_profile_str(profile: MixedProfile) -> str:
    return " ".join(_tuple_str(s.probs) for s in profile.strategies)


def _parse_profile_spec(game: Game, spec: str) -> MixedProfile:
    if spec == "uniform":
        return game.uniform()
    try:
        # Decimal literals go to Fraction as source text, never through float.
        raw = json.loads(spec, parse_float=rational)
    except (json.JSONDecodeError, RecursionError) as exc:   # or too deeply nested to decode
        raise ValueError(f"profile spec is neither 'uniform' nor valid JSON: {exc}")
    except ValueError as exc:   # a number, integer or decimal, past the digit limit
        raise ValueError(f"profile spec: number too large: {exc}") from None
    if not isinstance(raw, list) or len(raw) != game.player_count:
        raise ValueError(f"profile spec must list {game.player_count} probability vectors")
    strategies = []
    for j, (vec, m) in enumerate(zip(raw, game.strategy_counts)):
        try:
            strategies.append(MixedStrategy(vec))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"player {j + 1}: bad probability vector ({exc})")
        if len(vec) != m:
            raise ValueError(f"player {j + 1}: probability vector has length {len(vec)}, "
                             f"expected {m}")
    return MixedProfile(tuple(strategies))


def _cmd_info(args) -> int:
    game = load_game(args.file)
    print(f"players: {game.player_count}")
    for j, names in enumerate(game.strategy_names):
        print(f"player {j + 1}: {len(names)} strategies ({', '.join(names)})")
    total = equilibria.constant_sum(game)
    if total is None:
        print("constant sum: no")
    else:
        print(f"constant sum: {total}")
    flags = equilibria.own_payoff_independent(game)
    print("own-payoff independent: "
          + " ".join(f"player {j + 1}={'yes' if f else 'no'}" for j, f in enumerate(flags)))
    return 0


def _cmd_enumerate(args) -> int:
    game = load_game(args.file)
    # Looked up at each call, not stored in the parser, so a patched function is the one run.
    finder = getattr(equilibria, f"enumerate_pure_{args.kind}")
    profiles = finder(game)
    for profile in profiles:
        print(" ".join(game.name_of(profile)))
    print(f"count: {len(profiles)}")
    return 0


def _cmd_check(args) -> int:
    game = load_game(args.file)
    profile = _parse_profile_spec(game, args.profile)
    if args.kind == "nash":
        verdict = equilibria.is_nash(game, profile)
        player, deviation = verdict.worst_witness
        witness = (f"player {player + 1} deviating to "
                   f"{game.strategy_names[player][deviation]}")
    else:
        verdict = equilibria.is_berge(game, profile)
        player, complement = verdict.worst_witness
        co_names = [game.strategy_names[j][i]
                    for j, i in zip((j for j in range(game.player_count) if j != player),
                                    complement)]
        witness = f"player {player + 1} with complement ({', '.join(co_names)})"
    print(f"kind: {args.kind}")
    print(f"equilibrium: {'yes' if verdict.is_equilibrium else 'no'}")
    print(f"deficiency: {verdict.deficiency}")
    print(f"worst witness: {witness}")
    return 0 if verdict.is_equilibrium else 3


def _coordinate(game: Game, player: int, strategies):
    # A player's set of a box: "*" when it holds every strategy, else a
    # 2-strategy player's first-strategy probability, else strategy names.
    names = game.strategy_names[player]
    if len(strategies) == len(names):
        return "*"
    if len(names) == 2:
        return 1 - strategies[0]
    return "{" + ",".join(names[i] for i in strategies) + "}"


def _box_coordinates(game: Game, graphs) -> list:
    # Each graph's boxes, each box as its list of coordinates.
    return [[[_coordinate(game, j, s) for j, s in enumerate(box)] for box in graph]
            for graph in graphs]


def _cmd_decide_berge(args) -> int:
    game = load_game(args.file)
    cert = search.decide_berge_existence_oi222(game)
    print(f"outcome: {'exists' if cert.exists else 'not-exists'}")
    for j, graph in enumerate(_box_coordinates(game, cert.per_player_graphs)):
        print(f"player {j + 1}: {' '.join(map(_tuple_str, graph))}")
    if cert.exists:
        print(f"witness: {_mixed_profile_str(cert.witness)}")
        return 0
    # The conflict line sums up the graphs above: the first player j and pair of
    # graphs (k, l) whose unions of sets for j are disjoint, k's starting later.
    for j in range(game.player_count):
        unions = [sorted({i for box in graph for i in box[j]}) for graph in cert.per_player_graphs]
        for (k, a), (l, b) in itertools.product(enumerate(unions), repeat=2):
            if a[0] > b[0] and set(a).isdisjoint(b):
                name = COORD_NAMES[j] if game.player_count <= len(COORD_NAMES) else f"x{j + 1}"
                print(f"conflict: coordinate {name} is fixed to {_coordinate(game, j, a)} by "
                      f"player {k + 1} and to {_coordinate(game, j, b)} by player {l + 1}")
                return 3
    return 3


def _cmd_search(args) -> int:
    game = load_game(args.file)
    results = search.grid_search_min_deficiency(game, args.resolution, args.top)
    for profile, deficiency in results:
        print(f"deficiency {deficiency} at {_mixed_profile_str(profile)}")
    return 0


def _cmd_builtin(args) -> int:
    text = serialize_game(builtin_game(args.name))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergegames",
        description="Exact Berge/Nash equilibrium computations on game files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="game shape, constant sum, own-payoff independence")
    p.add_argument("file")
    p.set_defaults(run=_cmd_info)

    p = sub.add_parser("pure-nash", help="enumerate pure Nash equilibria")
    p.add_argument("file")
    p.set_defaults(run=_cmd_enumerate, kind="nash")
    p = sub.add_parser("pure-berge", help="enumerate pure Berge equilibria")
    p.add_argument("file")
    p.set_defaults(run=_cmd_enumerate, kind="berge")

    p = sub.add_parser("check", help="check a mixed profile exactly")
    p.add_argument("file")
    p.add_argument("--profile", required=True,
                   help="'uniform' or a JSON list of per-player probability vectors "
                        "of rational strings, e.g. '[[\"1/2\",\"1/2\"],...]'")
    p.add_argument("--kind", required=True, choices=("nash", "berge"))
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("decide-berge",
                       help="exact mixed Berge existence for own-payoff-independent games")
    p.add_argument("file")
    p.set_defaults(run=_cmd_decide_berge)

    p = sub.add_parser("search", help="exact Berge-deficiency grid search")
    p.add_argument("file")
    p.add_argument("--resolution", type=int, required=True, metavar="K")
    p.add_argument("--top", type=int, default=10, metavar="T")
    p.set_defaults(run=_cmd_search)

    p = sub.add_parser("builtin", help="write a built-in game document")
    p.add_argument("name", help="one of: " + ", ".join(BUILTIN_NAMES))
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_builtin)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the help (0) or a usage error (1)
        return 1 if exc.code == 2 else exc.code
    try:
        return args.run(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except GameFormatError as exc:
        print(f"error: bad game document: {exc}", file=sys.stderr)
        return 1
    except UnsupportedGameError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:   # OSError: say, a directory where a file was expected
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The command line of `meandim`: one option table and the parser that reads
a command line against it.

`parse_args` gives the command and the value of every option of `OPTIONS`,
defaults included, under the option's name without its dashes and with `_`
for `-` (`--m-max` is `m_max`).  A command line it cannot read is a
`SpecError` that names the command or option; `cli.main` prints it as one
`spec error:` line and exits 2.
"""
from __future__ import annotations

import re
from types import SimpleNamespace


class SpecError(ValueError):
    """A command line, option value or spec that cannot be read."""


def parse_value(convert, text: str, name: str):
    """convert(text), with a value it cannot read reported as a SpecError."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{name}: cannot read {text!r} ({exc})") from None


# option -> (converter, default).  A converter is `int`, `str`, a tuple of
# the accepted values, or `[int]`: a list of ints that takes every token up
# to the next option.
OPTIONS = {
    "--spec": (str, None),
    "--m-max": (int, 4),
    "--l-max": (int, 4),
    "--depths": ([int], None),
    "--eps-grid": (str, None),
    "--folner": (("balls", "boxes"), "balls"),
    "--w": (str, None),
    "--seed": (int, 0),
    "--window-sizes": ([int], None),
    "--k-list": (str, None),
    "--eps": (str, None),
    "--out": (str, None),
    "--caps": (str, ""),
}

# a token that starts with '-' but reads as a negative number is a value
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _is_option(token: str) -> bool:
    return token.startswith("-") and not _NEGATIVE_NUMBER.match(token)


def _read_option(convert, name: str, text: str):
    if isinstance(convert, tuple):
        if text not in convert:
            raise SpecError(f"{name}: {text!r} is not one of "
                            f"{', '.join(convert)}")
        return text
    return parse_value(convert, text, name)


def parse_args(argv, commands) -> SimpleNamespace:
    """The command, one of `commands`, and every option value of `argv`.
    The one bare token is the command; an option is `--name value` or
    `--name=value`, named exactly, and the last one given wins."""
    values = {name: default for name, (_, default) in OPTIONS.items()}
    command = None
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if not _is_option(token):
            if command is not None:
                raise SpecError(f"two commands given: {command!r} and "
                                f"{token!r}")
            if token not in commands:
                raise SpecError(f"unknown command {token!r}; see --help")
            command = token
            continue
        name, eq, text = token.partition("=")
        if name not in OPTIONS:
            raise SpecError(f"unknown option {name!r}; see --help")
        convert = OPTIONS[name][0]
        if isinstance(convert, list):
            texts = [text] if eq else []
            while not eq and i < len(argv) and not _is_option(argv[i]):
                texts.append(argv[i])
                i += 1
            values[name] = [_read_option(convert[0], name, t) for t in texts]
            continue
        if not eq:
            if i == len(argv) or _is_option(argv[i]):
                raise SpecError(f"{name} needs a value")
            text = argv[i]
            i += 1
        values[name] = _read_option(convert, name, text)
    if command is None:
        raise SpecError("no command given; see --help")
    if values["--spec"] is None:
        raise SpecError("--spec is required")
    return SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def usage(commands) -> str:
    """The --help text: every command, then every option with its
    default."""
    lines = ["usage: meandim COMMAND --spec PATH [--name VALUE ...]",
             "commands:"] + [f"  {command}" for command in commands]
    lines.append("options (--name VALUE or --name=VALUE):")
    for name, (convert, default) in OPTIONS.items():
        metavar = ("N ..." if isinstance(convert, list)
                   else "|".join(convert) if isinstance(convert, tuple)
                   else {int: "N", str: "TEXT"}[convert])
        lines.append(f"  {name} {metavar}" + (
            "" if default in (None, "") else f" (default {default})"))
    return "\n".join(lines) + "\n"

"""One benchmark invocation of the maksarum CLI, run as a child process.

Usage: python3 child.py META_PATH TRACE ARGV...

Runs ``maksarum.cli.main(ARGV)`` and exits with its code.  The CLI sees only
ARGV.  On the way out it writes META_PATH, a small text file:

    line 1   import_s setup_mark module_path
    line 2   span names, comma-separated             (TRACE=1 only)
    then     name_index start end parent_index out   (one line per span)

import_s is the time ``import maksarum.cli`` took; setup_mark is the
time.monotonic() reading when main() has built its argument parser, which
the parent subtracts from its own reading at spawn.  With TRACE=1 the public
functions the CLI reaches are replaced, in the module namespaces their
callers look them up in, by wrappers that record one span per call.  No
package file is changed.
"""

import time

T_START = time.monotonic()

import sys  # noqa: E402

# (module, attribute the callers look up, span name, record len(result) as out)
WRAPPED = (
    ("cli", "to_string", "sexagesimal.to_string", False),
    ("tablet", "to_string", "sexagesimal.to_string", False),
    ("survey", "enumerate_solutions", "survey.enumerate_solutions", True),
    ("survey", "band_filter", "survey.band_filter", False),
    ("survey", "stats", "survey.stats", False),
    ("survey", "write_records_csv", "survey.write_records_csv", False),
    ("survey", "histogram", "survey.histogram", False),
    ("survey", "solve_integer", "factor.solve_integer", False),
    ("survey", "factorize", "ntheory.factorize", False),
    ("survey", "divisors_from_factors", "ntheory.divisors", True),
    ("partitions", "enumerate_bounded", "partitions.enumerate_bounded", True),
    ("partitions", "pair_solution", "partitions.pair_solution", False),
    ("partitions", "derive_q", "factor.derive_q", False),
    ("partitions", "factorize", "ntheory.factorize", False),
    ("partitions", "divisors_from_factors", "ntheory.divisors", True),
    ("tablet", "reconstruct_all", "tablet.reconstruct_all", False),
    ("tablet", "explain_errors", "tablet.explain_errors", False),
    ("circle", "pi_digits", "circle.pi_digits", False),
)


class Tracer:
    """Spans kept in memory as (name_index, start, end, parent_index, out)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, name, fn, count=False):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def timed(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            out = 0
            try:
                result = fn(*args, **kwargs)
                if count:
                    out = len(result)
                return result
            finally:
                stack.pop()
                spans[idx] = (nid, start, clock(), parent, out)

        return timed

    def lines(self):
        yield ",".join(self.names) + "\n"
        for span in self.spans:
            yield "%d %r %r %d %d\n" % span


def main() -> int:
    meta_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import maksarum.cli as cli

    import_s = time.monotonic() - T_START
    setup_mark = []
    build_parser = cli.build_parser

    def timed_build_parser():
        parser = build_parser()
        setup_mark.append(time.monotonic())
        return parser

    cli.build_parser = timed_build_parser
    run = cli.main
    tracer = None
    if traced:
        tracer = Tracer()
        for module_name, attr, name, count in WRAPPED:
            module = sys.modules["maksarum." + module_name]
            setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))
        run = tracer.wrap("cli.main", cli.main)
    try:
        return run(argv)
    finally:
        sys.stdout.flush()
        with open(meta_path, "w", encoding="ascii") as fp:
            mark = setup_mark[0] if setup_mark else float("nan")
            fp.write(f"{import_s!r} {mark!r} {cli.__file__}\n")
            if tracer is not None:
                fp.writelines(tracer.lines())


if __name__ == "__main__":
    sys.exit(main())

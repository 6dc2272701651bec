"""PageRank over a coded cluster, validated against networkx.

The paper's graph-ranking workload (§7.1.2): power iteration over a
scale-free web graph's transition matrix, distributed with an MDS code and
scheduled by S2C2.  The coded ranks match networkx's PageRank to numerical
tolerance while the cluster rides out a straggler.

Run:  python examples/pagerank_graph.py
"""

import networkx as nx
import numpy as np

from repro.apps import PowerIterationPageRank, make_web_graph
from repro.cluster import ControlledSpeeds, CostModel, NetworkModel
from repro.coding import MDSCode
from repro.prediction import OraclePredictor
from repro.runtime import CodedSession
from repro.scheduling import GeneralS2C2Scheduler

N_PAGES = 600
N_WORKERS, K = 12, 9


def main() -> None:
    matrix, graph = make_web_graph(N_PAGES, seed=0)
    session = CodedSession(
        speed_model=ControlledSpeeds(N_WORKERS, num_stragglers=1, slowdown=5.0, seed=1),
        predictor=OraclePredictor(
            speed_model=ControlledSpeeds(
                N_WORKERS, num_stragglers=1, slowdown=5.0, seed=1
            )
        ),
        network=NetworkModel(latency=1e-5, bandwidth=1e9),
        cost=CostModel(worker_flops=5e7),
    )
    session.register_matvec(
        "M", matrix, MDSCode(N_WORKERS, K),
        GeneralS2C2Scheduler(coverage=K, num_chunks=10_000),
    )

    pagerank = PowerIterationPageRank(
        matvec=lambda v: session.matvec("M", v), n_pages=N_PAGES, damping=0.85
    )
    ranks = pagerank.run(max_iterations=100, tol=1e-10)

    reference = nx.pagerank(graph, alpha=0.85, max_iter=500, tol=1e-12)
    reference = np.array([reference[i] for i in range(N_PAGES)])
    error = np.max(np.abs(ranks - reference))
    if not error < 1e-8:
        raise SystemExit(f"coded ranks differ from networkx by {error:.2e}")

    print(f"graph: {N_PAGES} pages, {graph.number_of_edges()} links")
    print(f"power iterations to 1e-10: {pagerank.iterations_run}")
    print(f"max |coded - networkx|   : {error:.2e}")
    print(f"top 5 pages              : {pagerank.top_pages(5).tolist()}")
    print(f"simulated cluster time   : {session.metrics.total_time[0] * 1e3:.1f} ms "
          f"({len(session.metrics)} coded mat-vecs, "
          f"waste {session.metrics.total_wasted_fraction()[0]:.1%})")


if __name__ == "__main__":
    main()

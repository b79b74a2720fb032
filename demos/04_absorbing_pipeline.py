"""The absorption toolchain, bottom to top.

Absorption turns near-factors into factors: a pre-built vertex set R is
robust enough that R together with any small balanced remainder still
factors.  The chain runs connectors (sets joining two same-part vertices
so either side factors), then absorbers (sets that factor with and
without a given transversal tuple), then a sparse template whose
matchings survive losing most of one side, and finally the assembled
set R with its verifier.
"""

from transtile import (
    Pattern,
    VertexId,
    AbsorbParams,
    build_absorbing_set,
    complete_blowup,
    find_absorber,
    find_connector,
    generate_template,
    random_spanning_subgraph,
    verify_absorbing_property,
    verify_template,
)

K3 = Pattern.complete(3)
G = random_spanning_subgraph(complete_blowup(K3, 8), 0.85, seed=2)

print("-- connectors: two same-part vertices joined through one set --")
u, v = VertexId(1, 0), VertexId(1, 1)
c = find_connector(G, u, v, t=1)
# a vertex set is per-part masks: slot p holds part p's vertices as bits
verts = [(p, i) for p in range(1, G.k + 1) for i in range(G.n) if c.verts[p] >> i & 1]
print(f"t=1 connector for {tuple(u)}..{tuple(v)}: {verts}")

print("-- absorbers: a set that factors with and without its target --")
S = tuple(VertexId(p, 0) for p in (1, 2, 3))
a = find_absorber(G, S, connector_t=1)
size = sum(m.bit_count() for m in a.verts[1:])
print(f"absorber for {[tuple(x) for x in S]}: {size} vertices, t={a.t}")
a.validate(G)
print("  both witnesses revalidate")

print("-- robust templates: matchings that survive losing X-side slack --")
T = generate_template(m=2, beta_m=1, seed=0)
ok, _ = verify_template(T)
print(
    f"template m=2: left {T.left_size} (={T.x_size} slack + {T.y_size} fixed), "
    f"right {T.z_size}, {len(T.edges)} edges, verified={ok}"
)

print("-- the assembled absorbing set --")
H = complete_blowup(K3, 90)
params = AbsorbParams(
    q=1 / 45, tau=3.0, beta_prime=0.003, m=1, beta_m=1, seed=7, connector_t=1
)
R = build_absorbing_set(H, params)
print(
    f"n={H.n}: |R|={R.total_size()} ({R.size_per_part()} per part), "
    f"{len(R.provenance['absorbers'])} absorbers, xi={R.xi:.4f}"
)
verdict = verify_absorbing_property(H, R, trials=32, seed=1)
print(f"absorbing property over {verdict.checks} balanced remainders: ok={verdict.ok}")

//! Network topologies: who is wired to whom, and at what latency class.
//!
//! The simulator historically modelled one flat full mesh — every pair of
//! nodes a direct link with the same latency model. That is the right
//! degenerate case for the paper's abstract Δ-synchrony, but the claims
//! about DAG advantage are claims about behaviour under *realistic*
//! internet structure (DAG-Sword, PAPERS.md): geo-clustered latency,
//! bounded-degree relay graphs, and gossip that reaches most nodes only
//! through forwarding. This module supplies that structure:
//!
//! * [`Topology`] — a compact, `Copy` description (full mesh, k-regular
//!   circulant relay graphs, geo-clustered regions with an inter-region
//!   latency class) that embeds in [`crate::config::NetConfig`].
//! * [`TopologyMap`] — the instantiated adjacency for a concrete `n`:
//!   CSR neighbour lists, region assignment, and graph probes (degree,
//!   diameter estimate). Construction is deterministic per `(n, seed)`
//!   and draws from its *own* ChaCha8 stream, so adding a topology never
//!   perturbs the delivery RNG of existing full-mesh runs.
//! * `LinkTable` — per-directed-link values laid out over a topology
//!   (crate-internal): one dense row per [`TopologyMap::edge_index`], one
//!   sparse spill map for the links that have none.
//!
//! The adjacency restricts the *gossip overlay* (block announcements and
//! relay forwarding in `am-protocols::propagation`); point-to-point sends
//! — ABD rounds, pull repair, request traffic — model the IP underlay and
//! stay legal between any pair of nodes.

use crate::hash::IntMap;
use crate::latency::LatencyModel;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::str::FromStr;

/// Seed-domain separator for topology construction (never shared with the
/// delivery RNG, which uses `seed ^ 0x5e70_fae7`).
const TOPO_SEED: u64 = 0x7090_10af_0000_0000;

/// A compact, `Copy` topology description, embeddable in `Params`-style
/// experiment structs. Instantiate with [`Topology::instantiate`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Every pair of nodes directly linked (the legacy degenerate case).
    FullMesh,
    /// A connected ~k-regular relay graph: a ring plus `⌈k/2⌉ − 1`
    /// random circulant chord classes, so every node has degree
    /// `2·⌈k/2⌉` (clamped by `n`). Models a bounded-degree peer-to-peer
    /// overlay.
    Relay {
        /// Target node degree (≥ 1; degree 2 minimum is the ring).
        k: usize,
    },
    /// Geo-clustered regions: nodes split into `regions` contiguous
    /// blocks; intra-region links form a ~k-regular relay graph (full
    /// mesh for tiny regions) at the config's base latency, and every
    /// region pair is joined by a few gateway links carrying the `inter`
    /// latency class.
    Geo {
        /// Number of regions (≥ 1).
        regions: usize,
        /// Target intra-region node degree.
        k: usize,
        /// Latency model of inter-region (gateway) links.
        inter: LatencyModel,
    },
}

/// Meshes up to this many nodes give every ordered pair a row; larger, none.
const DENSE_MESH_NODES: usize = 64;

/// Default intra-region degree for `geo:<r>` parsed from the CLI.
pub const GEO_DEFAULT_K: usize = 8;
/// Default inter-region latency for `geo:<r>` parsed from the CLI:
/// 80 ms — a transatlantic-ish hop on the 1 Δ = 1 s time base.
pub const GEO_DEFAULT_INTER_NS: u64 = 80_000_000;

impl Topology {
    /// Builds the concrete adjacency for `n` nodes. Deterministic per
    /// `(n, seed)`; `FullMesh` allocates nothing and draws nothing.
    pub fn instantiate(&self, n: usize, seed: u64) -> TopologyMap {
        match *self {
            Topology::FullMesh => TopologyMap::mesh(n),
            Topology::Relay { k } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ TOPO_SEED);
                let mut edges = Vec::new();
                circulant_edges(0, n, k, &mut rng, &mut edges);
                TopologyMap::from_edges(n, &edges, Vec::new(), None)
            }
            Topology::Geo { regions, k, inter } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ TOPO_SEED);
                let regions = regions.clamp(1, n.max(1));
                let region: Vec<u16> = (0..n).map(|i| (i * regions / n.max(1)) as u16).collect();
                let mut edges = Vec::new();
                // Intra-region relay graphs over each contiguous block.
                for r in 0..regions {
                    let lo = r * n / regions;
                    let hi = (r + 1) * n / regions;
                    circulant_edges(lo, hi - lo, k, &mut rng, &mut edges);
                }
                // Gateways: two random links per region pair, so the
                // region graph is complete and the overlay diameter stays
                // a few hops while total links remain O(n·k + regions²).
                for a in 0..regions {
                    for b in (a + 1)..regions {
                        for _ in 0..2 {
                            let (alo, ahi) = (a * n / regions, (a + 1) * n / regions);
                            let (blo, bhi) = (b * n / regions, (b + 1) * n / regions);
                            if alo == ahi || blo == bhi {
                                continue;
                            }
                            let u = rng.gen_range(alo..ahi) as u32;
                            let v = rng.gen_range(blo..bhi) as u32;
                            edges.push((u, v));
                        }
                    }
                }
                TopologyMap::from_edges(n, &edges, region, Some(inter))
            }
        }
    }

    /// The region count (1 for non-geo topologies).
    pub fn regions(&self) -> usize {
        match *self {
            Topology::Geo { regions, .. } => regions.max(1),
            _ => 1,
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Topology::FullMesh => write!(f, "mesh"),
            Topology::Relay { k } => write!(f, "relay:{k}"),
            Topology::Geo { regions, k, .. } => write!(f, "geo:{regions}x{k}"),
        }
    }
}

impl FromStr for Topology {
    type Err = String;

    /// Parses the CLI surface: `mesh`, `relay:<k>`, `geo:<regions>` or
    /// `geo:<regions>:<k>` (geo defaults: k = [`GEO_DEFAULT_K`], inter
    /// latency constant [`GEO_DEFAULT_INTER_NS`]).
    fn from_str(s: &str) -> Result<Topology, String> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let arg = |p: Option<&str>, what: &str| -> Result<usize, String> {
            let v = p.ok_or_else(|| format!("'{s}': {what} missing (try {head}:<n>)"))?;
            let k: usize = v
                .parse()
                .map_err(|_| format!("'{s}': {what} must be a positive integer, got '{v}'"))?;
            if k == 0 {
                return Err(format!("'{s}': {what} must be ≥ 1"));
            }
            Ok(k)
        };
        match head {
            "mesh" => Ok(Topology::FullMesh),
            "relay" => Ok(Topology::Relay {
                k: arg(parts.next(), "relay degree")?,
            }),
            "geo" => {
                let regions = arg(parts.next(), "region count")?;
                let k = match parts.next() {
                    Some(v) => arg(Some(v), "intra-region degree")?,
                    None => GEO_DEFAULT_K,
                };
                Ok(Topology::Geo {
                    regions,
                    k,
                    inter: LatencyModel::Constant(GEO_DEFAULT_INTER_NS),
                })
            }
            other => Err(format!(
                "unknown topology '{other}' (expected mesh | relay:<k> | geo:<r>[:<k>])"
            )),
        }
    }
}

/// Ring + random circulant chords over nodes `base .. base + len`:
/// offset class 1 is the ring; each extra class is one random offset in
/// `[2, len/2]`, giving every node the same degree. Tiny blocks
/// (`len ≤ k + 1`) get a full mesh instead.
fn circulant_edges(
    base: usize,
    len: usize,
    k: usize,
    rng: &mut ChaCha8Rng,
    edges: &mut Vec<(u32, u32)>,
) {
    if len <= 1 {
        return;
    }
    if len <= k + 1 {
        for i in 0..len {
            for j in (i + 1)..len {
                edges.push(((base + i) as u32, (base + j) as u32));
            }
        }
        return;
    }
    let classes = (k.max(2)).div_ceil(2);
    let max_off = len / 2;
    let mut offsets: Vec<usize> = vec![1];
    let mut misses = 0;
    while offsets.len() < classes && offsets.len() < max_off && misses < 64 * classes {
        let cand = rng.gen_range(2..=max_off);
        if offsets.contains(&cand) {
            misses += 1;
        } else {
            offsets.push(cand);
        }
    }
    for &off in &offsets {
        for i in 0..len {
            let j = (i + off) % len;
            if i != j {
                edges.push(((base + i) as u32, (base + j) as u32));
            }
        }
    }
}

/// The instantiated adjacency of a [`Topology`] for a concrete `n`.
///
/// Full meshes are represented implicitly (no allocation); everything
/// else is a CSR neighbour table with neighbours sorted ascending, so
/// gossip fan-out order is deterministic and, on a mesh, identical to the
/// legacy `for to in 0..n` loop.
#[derive(Clone, Debug)]
pub struct TopologyMap {
    n: usize,
    mesh: bool,
    /// CSR row offsets (`n + 1` entries; empty when `mesh`).
    offsets: Vec<u32>,
    /// Concatenated sorted neighbour lists (empty when `mesh`).
    adj: Vec<u32>,
    /// Region of each node (empty unless geo).
    region: Vec<u16>,
    /// Latency class of cross-region links (geo only).
    inter: Option<LatencyModel>,
}

impl TopologyMap {
    /// The implicit full mesh (no adjacency storage).
    pub fn mesh(n: usize) -> TopologyMap {
        TopologyMap {
            n,
            mesh: true,
            offsets: Vec::new(),
            adj: Vec::new(),
            region: Vec::new(),
            inter: None,
        }
    }

    fn from_edges(
        n: usize,
        edges: &[(u32, u32)],
        region: Vec<u16>,
        inter: Option<LatencyModel>,
    ) -> TopologyMap {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(a, b) in edges {
            debug_assert!(a != b && (a as usize) < n && (b as usize) < n);
            pairs.push((a, b));
            pairs.push((b, a));
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut offsets = vec![0u32; n + 1];
        for &(a, _) in &pairs {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let adj = pairs.iter().map(|&(_, b)| b).collect();
        TopologyMap {
            n,
            mesh: false,
            offsets,
            adj,
            region,
            inter,
        }
    }

    /// Node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The dense row of the directed link `from → to` in a per-link table
    /// laid out over this topology (`LinkTable`): on a CSR topology the
    /// row offset of `from` plus the position of `to` in its sorted row;
    /// on a mesh of at most 64 nodes `from · n + to`. `None` for a link
    /// with no row — an off-topology send, any link of a larger mesh, or
    /// an endpoint out of range. Rows ascend with `(from, to)`.
    #[inline]
    pub fn edge_index(&self, from: usize, to: usize) -> Option<usize> {
        if from >= self.n || to >= self.n {
            return None;
        }
        if self.mesh {
            return (self.n <= DENSE_MESH_NODES).then(|| from * self.n + to);
        }
        let lo = self.offsets[from] as usize;
        let row = &self.adj[lo..self.offsets[from + 1] as usize];
        row.binary_search(&(to as u32)).ok().map(|at| lo + at)
    }

    /// `from → to` with its row resolved: [`TopologyMap::edge_index`], or
    /// [`Link::SPILL`] for a link with none.
    #[inline]
    pub(crate) fn link(&self, from: usize, to: usize) -> Link {
        // Edge rows are below `adj.len()`, whose `u32` CSR offsets keep
        // them below `u32::MAX`; a mesh with rows has at most 64² of them.
        let row = self
            .edge_index(from, to)
            .map_or(Link::SPILL, |edge| edge as u32);
        Link {
            from: from as u32,
            to: to as u32,
            row,
        }
    }

    /// Number of dense edge rows ([`TopologyMap::edge_index`] is below it).
    pub fn edge_count(&self) -> usize {
        match self.mesh {
            true if self.n <= DENSE_MESH_NODES => self.n * self.n,
            true => 0,
            false => self.adj.len(),
        }
    }

    /// The directed links of the edge rows, in row order.
    fn edge_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.n;
        (0..self.edge_count()).map(move |edge| match self.mesh {
            true => (edge / n, edge % n),
            false => (
                self.offsets.partition_point(|&off| off as usize <= edge) - 1,
                self.adj[edge] as usize,
            ),
        })
    }

    /// Whether this is the implicit full mesh.
    pub fn is_mesh(&self) -> bool {
        self.mesh
    }

    /// Gossip degree of `node` (mesh: `n − 1`).
    pub fn degree(&self, node: usize) -> usize {
        if self.mesh {
            self.n.saturating_sub(1)
        } else {
            (self.offsets[node + 1] - self.offsets[node]) as usize
        }
    }

    /// The `i`-th neighbour of `node`, ascending by id. On a mesh this
    /// enumerates `0..n` skipping `node`, matching the legacy broadcast
    /// order exactly.
    pub fn neighbor(&self, node: usize, i: usize) -> usize {
        if self.mesh {
            if i < node {
                i
            } else {
                i + 1
            }
        } else {
            self.adj[self.offsets[node] as usize + i] as usize
        }
    }

    /// Total directed gossip links (mesh: `n·(n−1)` implicit).
    pub fn link_count(&self) -> usize {
        if self.mesh {
            self.n.saturating_mul(self.n.saturating_sub(1))
        } else {
            self.adj.len()
        }
    }

    /// Region of `node` (0 for non-geo topologies).
    pub fn region_of(&self, node: usize) -> usize {
        self.region.get(node).copied().unwrap_or(0) as usize
    }

    /// The latency class override for `from → to`: `Some` only on a geo
    /// topology when the endpoints sit in different regions.
    pub fn inter_latency(&self, from: usize, to: usize) -> Option<LatencyModel> {
        let inter = self.inter?;
        if self.region.is_empty() || self.region[from] == self.region[to] {
            None
        } else {
            Some(inter)
        }
    }

    /// Hop-count eccentricity of `start` over the gossip adjacency
    /// (`usize::MAX` if some node is unreachable). Mesh: 1.
    fn eccentricity(&self, start: usize) -> (usize, usize) {
        let mut dist = vec![u32::MAX; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[start] = 0;
        queue.push_back(start);
        let (mut far, mut far_d) = (start, 0usize);
        while let Some(u) = queue.pop_front() {
            for i in 0..self.degree(u) {
                let v = self.neighbor(u, i);
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    if dist[v] as usize > far_d {
                        far_d = dist[v] as usize;
                        far = v;
                    }
                    queue.push_back(v);
                }
            }
        }
        if dist.contains(&u32::MAX) {
            (far, usize::MAX)
        } else {
            (far, far_d)
        }
    }

    /// Diameter estimate by double-sweep BFS (exact on meshes; a
    /// sharp lower bound in general, exact in practice on circulant and
    /// geo graphs this size). `usize::MAX` if the graph is disconnected.
    pub fn diameter(&self) -> usize {
        if self.n <= 1 {
            return 0;
        }
        if self.mesh {
            return 1;
        }
        let (far, d0) = self.eccentricity(0);
        if d0 == usize::MAX {
            return usize::MAX;
        }
        let (_, d1) = self.eccentricity(far);
        d0.max(d1)
    }

    /// Whether every node can reach every other over the gossip links.
    pub fn connected(&self) -> bool {
        self.n <= 1 || self.mesh || self.eccentricity(0).1 != usize::MAX
    }
}

impl Default for TopologyMap {
    /// The mesh of a zero-node network.
    fn default() -> Self {
        TopologyMap::mesh(0)
    }
}

/// A directed link with its row in every `LinkTable` over one topology
/// resolved ([`TopologyMap::link`]). The simulator resolves it once per
/// message copy, at the send, and the per-link counters, the bandwidth
/// horizon and the delivery all index by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Link {
    pub(crate) from: u32,
    pub(crate) to: u32,
    /// The edge row, or [`Link::SPILL`].
    pub(crate) row: u32,
}

impl Link {
    /// The row of a link that has none: its value sits in the spill map.
    pub(crate) const SPILL: u32 = u32::MAX;
}

/// Per-directed-link values over a [`TopologyMap`]: one dense row per edge
/// ([`TopologyMap::edge_index`]), and a sparse spill map for every link
/// without one. The rows are allocated at the first write, so a table
/// nothing is written to holds no memory, and [`LinkTable::clear`] keeps
/// them for the next network. Every method takes the topology the table
/// is laid out over, or a [`Link`] resolved on it; the caller keeps it
/// fixed between clears.
#[derive(Clone, Debug, Default)]
pub(crate) struct LinkTable<T> {
    rows: Vec<T>,
    spill: IntMap<u64, T>,
}

/// The spill key of a directed link.
#[inline]
fn link_key(from: usize, to: usize) -> u64 {
    ((from as u64) << 32) | to as u64
}

impl<T: Copy + Default> LinkTable<T> {
    /// Every link back to `T::default()`, capacity kept.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.spill.clear();
    }

    /// The value of `from → to`, created at `T::default()`.
    #[inline]
    pub(crate) fn get_mut(&mut self, topo: &TopologyMap, from: usize, to: usize) -> &mut T {
        self.at_mut(topo, topo.link(from, to))
    }

    /// The value of `link`, created at `T::default()`: an index into
    /// allocated rows, anything else out of line.
    #[inline]
    pub(crate) fn at_mut(&mut self, topo: &TopologyMap, link: Link) -> &mut T {
        // `SPILL` is past any row count, so one compare keeps both the
        // spill and the first write off this path.
        if (link.row as usize) < self.rows.len() {
            return &mut self.rows[link.row as usize];
        }
        self.at_mut_cold(topo, link)
    }

    /// [`LinkTable::at_mut`] for a spilled link or a table whose rows are
    /// not allocated yet.
    #[cold]
    #[inline(never)]
    fn at_mut_cold(&mut self, topo: &TopologyMap, link: Link) -> &mut T {
        if link.row == Link::SPILL {
            let key = link_key(link.from as usize, link.to as usize);
            return self.spill.entry(key).or_default();
        }
        self.rows.resize(topo.edge_count(), T::default());
        &mut self.rows[link.row as usize]
    }

    /// The value of `from → to` (`T::default()` if never written).
    #[inline]
    pub(crate) fn get(&self, topo: &TopologyMap, from: usize, to: usize) -> T {
        self.at(topo.link(from, to))
    }

    /// The value of `link` (`T::default()` if never written).
    #[inline]
    pub(crate) fn at(&self, link: Link) -> T {
        if let Some(&value) = self.rows.get(link.row as usize) {
            return value;
        }
        if link.row != Link::SPILL || self.spill.is_empty() {
            return T::default();
        }
        let key = link_key(link.from as usize, link.to as usize);
        self.spill.get(&key).copied().unwrap_or_default()
    }

    /// Every written link's value, in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.rows.iter().chain(self.spill.values())
    }

    /// Every written link with its value, ascending `(from, to)`: the edge
    /// rows merged with the spill.
    pub(crate) fn entries(&self, topo: &TopologyMap) -> Vec<(usize, usize, T)> {
        let mut out: Vec<(usize, usize, T)> = topo
            .edge_links()
            .zip(&self.rows)
            .map(|((from, to), &value)| (from, to, value))
            .collect();
        out.extend(
            self.spill
                .iter()
                .map(|(&key, &value)| ((key >> 32) as usize, (key & 0xffff_ffff) as usize, value)),
        );
        out.sort_unstable_by_key(|&(from, to, _)| (from, to));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_neighbors_enumerate_ascending_skipping_self() {
        let t = Topology::FullMesh.instantiate(5, 0);
        assert!(t.is_mesh());
        assert_eq!(t.degree(2), 4);
        let nbs: Vec<usize> = (0..t.degree(2)).map(|i| t.neighbor(2, i)).collect();
        assert_eq!(nbs, vec![0, 1, 3, 4]);
        assert_eq!(t.diameter(), 1);
        assert_eq!(t.link_count(), 20);
    }

    #[test]
    fn relay_is_connected_bounded_degree_and_deterministic() {
        for &n in &[2usize, 3, 7, 48, 257, 1000] {
            for seed in 0..3u64 {
                let t = Topology::Relay { k: 6 }.instantiate(n, seed);
                assert!(t.connected(), "n {n} seed {seed}");
                for node in 0..n {
                    assert!(
                        t.degree(node) <= 8.min(n - 1),
                        "degree {} at n {n}",
                        t.degree(node)
                    );
                    assert!(n < 2 || t.degree(node) >= 1);
                    // Sorted, self-free neighbour lists.
                    let nbs: Vec<usize> =
                        (0..t.degree(node)).map(|i| t.neighbor(node, i)).collect();
                    assert!(nbs.windows(2).all(|w| w[0] < w[1]), "unsorted at {node}");
                    assert!(!nbs.contains(&node));
                }
                let again = Topology::Relay { k: 6 }.instantiate(n, seed);
                assert_eq!(t.adj, again.adj, "instantiation must be deterministic");
            }
        }
    }

    #[test]
    fn relay_diameter_shrinks_with_degree() {
        let ring = Topology::Relay { k: 2 }.instantiate(256, 1);
        let dense = Topology::Relay { k: 12 }.instantiate(256, 1);
        assert!(ring.diameter() > dense.diameter());
        assert_eq!(ring.diameter(), 128, "a pure ring's diameter is n/2");
    }

    #[test]
    fn geo_regions_partition_nodes_and_cross_links_carry_inter_latency() {
        let inter = LatencyModel::Constant(80_000_000);
        let t = Topology::Geo {
            regions: 4,
            k: 4,
            inter,
        }
        .instantiate(64, 7);
        assert!(t.connected());
        assert_eq!(t.region_of(0), 0);
        assert_eq!(t.region_of(63), 3);
        let counts = (0..64).fold([0usize; 4], |mut c, i| {
            c[t.region_of(i)] += 1;
            c
        });
        assert_eq!(counts, [16, 16, 16, 16], "contiguous equal regions");
        assert_eq!(t.inter_latency(0, 1), None, "intra keeps the base class");
        assert_eq!(t.inter_latency(0, 63), Some(inter));
        assert_eq!(t.inter_latency(63, 0), Some(inter));
    }

    #[test]
    fn tiny_geo_regions_fall_back_to_region_meshes() {
        let t = Topology::Geo {
            regions: 3,
            k: 8,
            inter: LatencyModel::Constant(1),
        }
        .instantiate(9, 0);
        assert!(t.connected());
        // Region size 3 ≤ k+1 → intra full mesh: degree ≥ 2.
        for node in 0..9 {
            assert!(t.degree(node) >= 2, "node {node}");
        }
    }

    #[test]
    fn parses_cli_names() {
        assert_eq!("mesh".parse::<Topology>().unwrap(), Topology::FullMesh);
        assert_eq!(
            "relay:8".parse::<Topology>().unwrap(),
            Topology::Relay { k: 8 }
        );
        assert_eq!(
            "geo:4".parse::<Topology>().unwrap(),
            Topology::Geo {
                regions: 4,
                k: GEO_DEFAULT_K,
                inter: LatencyModel::Constant(GEO_DEFAULT_INTER_NS),
            }
        );
        assert_eq!(
            "geo:4:6".parse::<Topology>().unwrap().regions(),
            4,
            "explicit intra degree accepted"
        );
        for bad in ["", "torus", "relay", "relay:0", "relay:x", "geo:0", "geo"] {
            assert!(bad.parse::<Topology>().is_err(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn display_round_trips_the_simple_forms() {
        assert_eq!(Topology::FullMesh.to_string(), "mesh");
        assert_eq!(Topology::Relay { k: 8 }.to_string(), "relay:8");
    }
}

//! Domain partitioning and shared-DOF groups (Figs. 9-10).
//!
//! Each MPI task owns a structured block of zones. Continuous (H1) DOFs on
//! inter-block faces are *shared*: they belong to a group of tasks, one of
//! which (the lowest rank, the "master") owns the DOF in the global
//! numbering. Corner forces are zone-local; assembling the momentum RHS
//! requires summing the shared DOFs' contributions across their group —
//! the communication pattern the scaling model charges for.

use blast_fem::{CartMesh, H1Space};

/// A structured block partition of a mesh across ranks.
#[derive(Clone, Debug)]
pub struct Partition<const D: usize> {
    ranks_per_axis: [usize; D],
    zones_per_axis: [usize; D],
    rank_of_zone: Vec<usize>,
    zones_of_rank: Vec<Vec<usize>>,
}

impl<const D: usize> Partition<D> {
    /// Splits `mesh` into a grid of `ranks_per_axis` blocks. Zone counts
    /// need not divide evenly; remainder zones go to the trailing blocks.
    pub fn new(mesh: &CartMesh<D>, ranks_per_axis: [usize; D]) -> Self {
        let zpa = mesh.zones_per_axis();
        for d in 0..D {
            assert!(
                ranks_per_axis[d] >= 1 && ranks_per_axis[d] <= zpa[d],
                "axis {d}: {} ranks for {} zones",
                ranks_per_axis[d],
                zpa[d]
            );
        }
        let num_ranks: usize = ranks_per_axis.iter().product();
        let mut rank_of_zone = vec![0usize; mesh.num_zones()];
        let mut zones_of_rank = vec![Vec::new(); num_ranks];
        for z in 0..mesh.num_zones() {
            let mi = mesh.zone_multi_index(z);
            let mut flat = 0;
            for d in (0..D).rev() {
                // Block index along axis d.
                let b = (mi[d] * ranks_per_axis[d]) / zpa[d];
                flat = flat * ranks_per_axis[d] + b;
            }
            rank_of_zone[z] = flat;
            zones_of_rank[flat].push(z);
        }
        Self { ranks_per_axis, zones_per_axis: zpa, rank_of_zone, zones_of_rank }
    }

    /// Picks a near-cubic rank grid for `num_ranks` (must factorize into
    /// counts no larger than the zone counts).
    pub fn balanced(mesh: &CartMesh<D>, num_ranks: usize) -> Self {
        let mut grid = [1usize; D];
        let mut remaining = num_ranks;
        // Greedy: repeatedly give the smallest prime factor to the axis
        // with the largest zones-per-rank ratio.
        let zpa = mesh.zones_per_axis();
        while remaining > 1 {
            let p = smallest_prime_factor(remaining);
            let axis = (0..D)
                .max_by(|&a, &b| {
                    let ra = zpa[a] as f64 / grid[a] as f64;
                    let rb = zpa[b] as f64 / grid[b] as f64;
                    ra.partial_cmp(&rb).expect("finite")
                })
                .expect("D >= 1");
            grid[axis] *= p;
            remaining /= p;
        }
        Self::new(mesh, grid)
    }

    /// Total ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks_per_axis.iter().product()
    }

    /// Rank grid.
    pub fn ranks_per_axis(&self) -> [usize; D] {
        self.ranks_per_axis
    }

    /// Zones of a rank.
    pub fn zones_of_rank(&self, r: usize) -> &[usize] {
        &self.zones_of_rank[r]
    }

    /// For every H1 DOF, the sorted group of ranks sharing it. Interior
    /// DOFs have a single-rank group; face/edge/corner DOFs have 2, 4 (2D)
    /// or up to 8 (3D) ranks — exactly Fig. 10's groups.
    pub fn dof_groups(&self, space: &H1Space<D>) -> Vec<Vec<usize>> {
        assert_eq!(space.mesh().zones_per_axis(), self.zones_per_axis);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); space.num_dofs()];
        for z in 0..self.rank_of_zone.len() {
            let r = self.rank_of_zone[z];
            for &dof in space.zone_dofs(z) {
                if !groups[dof].contains(&r) {
                    groups[dof].push(r);
                }
            }
        }
        for g in &mut groups {
            g.sort_unstable();
        }
        groups
    }

    /// Master (owner) rank of each DOF: the lowest rank of its group.
    pub fn dof_owners(&self, space: &H1Space<D>) -> Vec<usize> {
        self.dof_groups(space).iter().map(|g| g[0]).collect()
    }

    /// Number of *shared* DOFs a rank participates in (its communication
    /// surface, which the halo-exchange cost model charges for).
    pub fn shared_dofs_of_rank(&self, space: &H1Space<D>, rank: usize) -> usize {
        self.dof_groups(space)
            .iter()
            .filter(|g| g.len() > 1 && g.contains(&rank))
            .count()
    }

    /// Re-partitions the whole mesh onto the surviving ranks after one or
    /// more rank deaths (the recovery protocol's shrink-to-fit step).
    ///
    /// `survivors` is the sorted list of *old* rank ids still alive. The
    /// returned partition covers every zone with `survivors.len()` compact
    /// new ranks `0..n`; the companion map gives, for each old rank id, its
    /// new compact id (`None` for the dead).
    pub fn shrink_to_fit(
        &self,
        mesh: &CartMesh<D>,
        survivors: &[usize],
    ) -> (Partition<D>, Vec<Option<usize>>) {
        assert!(!survivors.is_empty(), "at least one rank must survive");
        assert!(
            survivors.windows(2).all(|w| w[0] < w[1]),
            "survivor list must be sorted and unique: {survivors:?}"
        );
        let old_n = self.num_ranks();
        assert!(
            survivors.iter().all(|&r| r < old_n),
            "survivor id out of range: {survivors:?} for {old_n} ranks"
        );
        assert_eq!(mesh.zones_per_axis(), self.zones_per_axis, "mesh/partition mismatch");
        let shrunk = Partition::balanced(mesh, survivors.len());
        let mut slot_of_rank = vec![None; old_n];
        for (slot, &r) in survivors.iter().enumerate() {
            slot_of_rank[r] = Some(slot);
        }
        (shrunk, slot_of_rank)
    }
}

fn smallest_prime_factor(n: usize) -> usize {
    debug_assert!(n >= 2);
    let mut p = 2;
    while p * p <= n {
        if n.is_multiple_of(p) {
            return p;
        }
        p += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_zone_assigned_exactly_once() {
        let mesh = CartMesh::<2>::unit(6);
        let part = Partition::new(&mesh, [2, 3]);
        assert_eq!(part.num_ranks(), 6);
        let mut counts = vec![0usize; 6];
        for z in 0..mesh.num_zones() {
            counts[part.rank_of_zone[z]] += 1;
        }
        assert!(counts.iter().all(|&c| c == 6), "{counts:?}");
        let total: usize = (0..6).map(|r| part.zones_of_rank(r).len()).sum();
        assert_eq!(total, 36);
    }

    #[test]
    fn blocks_are_contiguous() {
        let mesh = CartMesh::<2>::unit(4);
        let part = Partition::new(&mesh, [2, 2]);
        // Zone (0,0) and (1,1) same block; (2,0) different.
        let z00 = mesh.zone_index([0, 0]);
        let z11 = mesh.zone_index([1, 1]);
        let z20 = mesh.zone_index([2, 0]);
        assert_eq!(part.rank_of_zone[z00], part.rank_of_zone[z11]);
        assert_ne!(part.rank_of_zone[z00], part.rank_of_zone[z20]);
    }

    #[test]
    fn uneven_split_assigns_all() {
        let mesh = CartMesh::<2>::new([5, 3], [0.0; 2], [1.0; 2]);
        let part = Partition::new(&mesh, [2, 1]);
        let n0 = part.zones_of_rank(0).len();
        let n1 = part.zones_of_rank(1).len();
        assert_eq!(n0 + n1, 15);
        assert!((n0 as i64 - n1 as i64).abs() <= 3);
    }

    #[test]
    fn dof_groups_match_fig10_structure() {
        // 2x2 ranks on a 4x4 Q1 mesh: the center lattice DOF is shared by
        // all four ranks; face DOFs by two; interior by one.
        let mesh = CartMesh::<2>::unit(4);
        let space = H1Space::new(mesh.clone(), 1);
        let part = Partition::new(&mesh, [2, 2]);
        let groups = part.dof_groups(&space);
        // 5x5 lattice; center = index (2,2) -> 2 + 2*5 = 12.
        assert_eq!(groups[12], vec![0, 1, 2, 3]);
        // (1, 2) = 11: on the horizontal cut between rank 0 and rank 2.
        assert_eq!(groups[11].len(), 2);
        // (1, 1) = 6: interior of rank 0.
        assert_eq!(groups[6], vec![0]);
    }

    #[test]
    fn owners_are_group_minimums() {
        let mesh = CartMesh::<2>::unit(4);
        let space = H1Space::new(mesh.clone(), 2);
        let part = Partition::new(&mesh, [2, 2]);
        let groups = part.dof_groups(&space);
        let owners = part.dof_owners(&space);
        for (g, &o) in groups.iter().zip(&owners) {
            assert_eq!(o, g[0]);
            assert!(g.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        }
    }

    #[test]
    fn shared_dof_count_is_the_surface() {
        // 2 ranks splitting 4x4 Q2: the cut passes through one lattice
        // column of 2*4+1 = 9 DOFs.
        let mesh = CartMesh::<2>::unit(4);
        let space = H1Space::new(mesh.clone(), 2);
        let part = Partition::new(&mesh, [2, 1]);
        assert_eq!(part.shared_dofs_of_rank(&space, 0), 9);
        assert_eq!(part.shared_dofs_of_rank(&space, 1), 9);
    }

    #[test]
    fn balanced_grid_is_near_cubic() {
        let mesh = CartMesh::<3>::unit(16);
        let part = Partition::balanced(&mesh, 8);
        assert_eq!(part.ranks_per_axis(), [2, 2, 2]);
        let part64 = Partition::balanced(&mesh, 64);
        assert_eq!(part64.ranks_per_axis(), [4, 4, 4]);
    }

    #[test]
    fn balanced_handles_non_power_counts() {
        let mesh = CartMesh::<2>::unit(12);
        let part = Partition::balanced(&mesh, 6);
        let grid = part.ranks_per_axis();
        assert_eq!(grid.iter().product::<usize>(), 6);
    }

    #[test]
    fn shrink_to_fit_covers_every_zone_with_survivors() {
        let mesh = CartMesh::<2>::unit(4);
        let part = Partition::new(&mesh, [2, 2]);
        // Rank 1 died.
        let (shrunk, slots) = part.shrink_to_fit(&mesh, &[0, 2, 3]);
        assert_eq!(shrunk.num_ranks(), 3);
        let total: usize = (0..3).map(|r| shrunk.zones_of_rank(r).len()).sum();
        assert_eq!(total, mesh.num_zones(), "every zone reassigned");
        assert_eq!(slots, vec![Some(0), None, Some(1), Some(2)]);
    }

    #[test]
    fn shrink_to_fit_to_one_rank_owns_everything() {
        let mesh = CartMesh::<2>::unit(4);
        let part = Partition::new(&mesh, [2, 1]);
        let (shrunk, slots) = part.shrink_to_fit(&mesh, &[1]);
        assert_eq!(shrunk.num_ranks(), 1);
        assert_eq!(shrunk.zones_of_rank(0).len(), mesh.num_zones());
        assert_eq!(slots, vec![None, Some(0)]);
    }

    #[test]
    #[should_panic(expected = "sorted and unique")]
    fn shrink_to_fit_rejects_unsorted_survivors() {
        let mesh = CartMesh::<2>::unit(4);
        let part = Partition::new(&mesh, [2, 2]);
        let _ = part.shrink_to_fit(&mesh, &[2, 0]);
    }

    #[test]
    #[should_panic(expected = "ranks for")]
    fn too_many_ranks_per_axis_rejected() {
        let mesh = CartMesh::<2>::unit(2);
        Partition::new(&mesh, [4, 1]);
    }
}

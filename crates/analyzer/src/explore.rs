//! Graph helpers shared by the explicit-state model checkers
//! ([`crate::modelcheck`] and [`crate::reliable`]): both explore a
//! state graph breadth-first, keep each node's parent edge, and prove
//! the graph acyclic.

/// A node of an explored state graph that remembers how it was first
/// reached: `(parent node id, action label)`, `None` at the root.
pub(crate) trait Reached {
    fn parent(&self) -> Option<&(usize, String)>;
}

/// Rebuilds the action trace from the root to `id` (plus an optional
/// final action).
pub(crate) fn trace_to<N: Reached>(nodes: &[N], id: usize, last: Option<String>) -> Vec<String> {
    let mut trace = Vec::new();
    let mut at = id;
    while let Some((parent, label)) = nodes[at].parent() {
        trace.push(label.clone());
        at = *parent;
    }
    trace.reverse();
    trace.extend(last);
    trace
}

/// Iterative three-colour DFS over the explored graph; returns a node
/// on a cycle if one exists (it never should — every transition grows
/// something monotone — but termination deserves a proof, not an
/// argument).
pub(crate) fn find_cycle(edges: &[Vec<usize>]) -> Option<usize> {
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut colour = vec![WHITE; edges.len()];
    for root in 0..edges.len() {
        if colour[root] != WHITE {
            continue;
        }
        // Stack of (node, next-edge-index) frames.
        let mut stack = vec![(root, 0usize)];
        colour[root] = GREY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&child) = edges[node].get(*next) {
                *next += 1;
                match colour[child] {
                    GREY => return Some(child),
                    WHITE => {
                        colour[child] = GREY;
                        stack.push((child, 0));
                    }
                    _ => {}
                }
            } else {
                colour[node] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

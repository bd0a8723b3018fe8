//! # exes-team
//!
//! Team-formation systems over collaboration networks: given a keyword query,
//! return a *set* of people who collectively cover the requested skills and are
//! close in the network.
//!
//! Two formers are provided behind the [`TeamFormer`] trait:
//!
//! * [`GreedyCoverTeamFormer`] — the paper's evaluation method ("requires the
//!   user to input an expert as the main team member, and constructs a team
//!   around the main member until all the query terms are covered"), built
//!   around any [`exes_expert_search::ExpertRanker`];
//! * [`MinDistanceTeamFormer`] — a Lappas-style rarest-skill / closest-holder
//!   heuristic that minimises distances to the seed, used as a second black box
//!   and as a baseline.
//!
//! ExES explains membership decisions through the same perturbation probes it
//! uses for expert search; the binary label is [`TeamFormer::is_member`]. A
//! former that can build a [`TeamBaseline`] per (snapshot, query) answers
//! those probes without ranking each perturbed graph
//! ([`TeamFormer::incremental_is_member`]); the greedy former does, over a
//! ranker that hands out rescored scores (TF-IDF).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod former;
mod greedy;
mod min_distance;
mod team;

pub use former::{TeamBaseline, TeamFormer};
pub use greedy::GreedyCoverTeamFormer;
pub use min_distance::MinDistanceTeamFormer;
pub use team::Team;

//! Sealed documents and trust marks — the incremental-verification layer.
//!
//! A [`SealedDocument`] bundles a parsed [`DraDocument`] with its lazily
//! memoized wire serialization and an optional [`TrustMark`] recording how
//! far the document has already been verified. Hand-offs between hops
//! (AEA → portal → AEA, AEA → TFC, scheduler inbox → AEA) move the sealed
//! form, and every clone shares one immutable tree and one wire buffer: a
//! hand-off is a reference-count bump, never a tree copy or a
//! serialize + re-parse. The only copy of the tree a hop pays for is the
//! copy-on-write of the hop that appends (or finalizes) a CER.
//!
//! A verifier presented with a trust mark re-checks only the CERs appended
//! since the mark was issued. The trust transfer is sound because the mark
//! pins a SHA-256 digest of the canonical bytes of the verified prefix —
//! `[Header, ApplicationDefinition, CER₀ … CER₍ₖ₋₁₎]`. A document whose
//! current prefix hashes to the same value is byte-identical (up to
//! canonical form) to the one that passed full verification, so those k
//! CERs' signatures need not be checked again. Any mutation of the prefix —
//! a tampered result, a stripped amendment, a TFC finalization of a
//! previously intermediate CER — changes the digest, and verification
//! falls back to the full pass (and fails loudly if the change was
//! malicious). Checking the incoming mark and issuing the next one share
//! one streaming pass over the prefix ([`prefix_digests`]). See
//! [`crate::verify::Verifier::with_mark`].

use crate::document::DraDocument;
use crate::error::WfResult;
use dra_crypto::sha2::Sha256;
use dra_xml::canon::canonicalize_shared;
use dra_xml::Element;
use std::sync::{Arc, OnceLock};

/// Evidence that a prefix of a document has already been fully verified.
///
/// Issued by [`crate::verify::Verifier::with_mark`] (and by the full
/// verifiers via [`crate::verify::trust_mark_for`]); consumed on the next
/// hop to skip re-verification of the pinned prefix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrustMark {
    /// Process id of the document the mark belongs to.
    pub process_id: String,
    /// Number of CERs covered by [`TrustMark::prefix_digest`].
    pub verified_cers: usize,
    /// SHA-256 over the canonical bytes of
    /// `[Header, ApplicationDefinition, CER₀ … CER₍ₖ₋₁₎]`.
    pub prefix_digest: [u8; 32],
    /// Cumulative signature checks spent establishing this mark (designer +
    /// participants + TFC across all passes).
    pub signatures_verified: usize,
}

/// Absorb one element's memoized canonical part into `h`, framed exactly
/// as [`dra_xml::canon::canonicalize_all`] frames it (u64-BE length, then
/// the bytes), so the streamed digest equals the digest of the framed
/// concatenation without ever materializing it.
fn absorb(h: &mut Sha256, el: &Element) {
    let part = canonicalize_shared(el);
    h.update(&(part.len() as u64).to_be_bytes());
    h.update(&part);
}

/// A hasher that has absorbed the header and application definition, plus
/// the document's CER elements in order.
fn prefix_hasher(doc: &DraDocument) -> WfResult<(Sha256, impl Iterator<Item = &Element>)> {
    let mut h = Sha256::new();
    absorb(&mut h, doc.header()?);
    absorb(&mut h, doc.app_definition()?);
    Ok((h, doc.results()?.find_children("CER")))
}

/// Compute the canonical prefix digest a [`TrustMark`] pins: the first
/// `cer_count` CERs plus header and application definition, streamed from
/// each element's memoized canonical bytes straight into SHA-256.
pub fn prefix_digest(doc: &DraDocument, cer_count: usize) -> WfResult<[u8; 32]> {
    let (mut h, cers) = prefix_hasher(doc)?;
    for cer in cers.take(cer_count) {
        absorb(&mut h, cer);
    }
    Ok(h.finalize())
}

/// Two prefix digests in one pass: the digest of the first `at` CERs (what
/// an incoming [`TrustMark`] claiming `at` verified CERs is checked
/// against) and the digest of the whole document (what the next mark
/// pins). The first is `None` when the document holds fewer than `at`
/// CERs. Both equal what [`prefix_digest`] computes for the same cut.
pub fn prefix_digests(doc: &DraDocument, at: usize) -> WfResult<(Option<[u8; 32]>, [u8; 32])> {
    let (mut h, cers) = prefix_hasher(doc)?;
    let mut at_digest = None;
    let mut seen = 0;
    for cer in cers {
        if seen == at {
            at_digest = Some(h.clone().finalize());
        }
        absorb(&mut h, cer);
        seen += 1;
    }
    if seen == at {
        at_digest = Some(h.clone().finalize());
    }
    Ok((at_digest, h.finalize()))
}

/// A parsed document plus its memoized wire form and verification trust.
///
/// Immutable by construction: there is no `&mut` access to the inner
/// document, so the serialized bytes and the trust mark can never go stale.
/// Clones share the tree and the wire buffer (a clone is a reference-count
/// bump); only the trust mark is per handle. To mutate, call
/// [`SealedDocument::into_document`] (dropping seal and trust, and copying
/// the tree only if another handle still shares it) and re-seal afterwards.
#[derive(Clone, Debug)]
pub struct SealedDocument {
    shared: Arc<Shared>,
    trust: Option<TrustMark>,
}

/// The part of a [`SealedDocument`] every clone shares.
#[derive(Debug)]
struct Shared {
    doc: DraDocument,
    /// Memoized wire serialization.
    wire: OnceLock<Arc<String>>,
}

impl SealedDocument {
    /// Seal a document with no prior verification evidence.
    pub fn new(doc: DraDocument) -> SealedDocument {
        SealedDocument { shared: Arc::new(Shared { doc, wire: OnceLock::new() }), trust: None }
    }

    /// Seal a document together with a [`TrustMark`] covering its prefix.
    pub fn with_trust(doc: DraDocument, trust: TrustMark) -> SealedDocument {
        SealedDocument { trust: Some(trust), ..SealedDocument::new(doc) }
    }

    /// Parse from the wire form, keeping the received bytes as the seal's
    /// serialization (the bytes that travelled are the bytes we account).
    pub fn from_wire(xml: &str) -> WfResult<SealedDocument> {
        let doc = DraDocument::parse(xml)?;
        let sealed = SealedDocument::new(doc);
        let _ = sealed.shared.wire.set(Arc::new(xml.to_string()));
        Ok(sealed)
    }

    /// The inner document, shared by every clone of this seal.
    pub fn document(&self) -> &DraDocument {
        &self.shared.doc
    }

    /// The trust mark, when one travels with the document.
    pub fn trust(&self) -> Option<&TrustMark> {
        self.trust.as_ref()
    }

    /// Attach (or replace) the trust mark.
    pub fn set_trust(&mut self, trust: TrustMark) {
        self.trust = Some(trust);
    }

    /// The wire serialization, computed once and shared across clones.
    pub fn wire(&self) -> Arc<String> {
        Arc::clone(self.shared.wire.get_or_init(|| Arc::new(self.shared.doc.to_xml_string())))
    }

    /// Wire size in bytes (the paper's Σ) without re-serializing.
    pub fn size_bytes(&self) -> usize {
        self.wire().len()
    }

    /// The wire serialization as an owned `String` (clones the shared buffer).
    pub fn to_xml_string(&self) -> String {
        self.wire().as_ref().clone()
    }

    /// Unseal for mutation, dropping the memoized bytes and the trust mark.
    /// Moves the tree out when this is its last handle and copies it
    /// otherwise, so other handles never observe the mutation.
    pub fn into_document(self) -> DraDocument {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => shared.doc,
            Err(shared) => shared.doc.clone(),
        }
    }
}

impl std::ops::Deref for SealedDocument {
    type Target = DraDocument;
    fn deref(&self) -> &DraDocument {
        self.document()
    }
}

impl From<DraDocument> for SealedDocument {
    fn from(doc: DraDocument) -> SealedDocument {
        SealedDocument::new(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aea::Aea;
    use crate::amendment::{amend_document, is_amendment_key, DefinitionDelta};
    use crate::identity::{Credentials, Directory};
    use crate::model::{Activity, JoinKind, Target, Transition, WorkflowDefinition};
    use crate::policy::SecurityPolicy;
    use crate::tfc::TfcServer;
    use crate::verify::{trust_mark_for, Verifier};
    use dra_xml::canon::canonicalize_all;

    /// A linear run of activities `S0 … S(n-1)`, one participant each, every
    /// payload readable only by the next participant.
    struct Chain {
        designer: Credentials,
        dir: Directory,
        tfc: TfcServer,
        /// `docs[i]` is the document after `i` hops (`docs[0]` the initial).
        docs: Vec<SealedDocument>,
    }

    fn run_chain(n: usize, with_tfc: bool) -> Chain {
        let designer = Credentials::from_seed("designer", "sealed-d");
        let tfc_creds = Credentials::from_seed("TFC", "sealed-tfc");
        let people: Vec<Credentials> = (0..n)
            .map(|i| Credentials::from_seed(format!("p{i}"), &format!("sealed-p{i}")))
            .collect();
        let mut b = WorkflowDefinition::builder("chain", "designer");
        for i in 0..n {
            b = b.simple_activity(format!("S{i}"), format!("p{i}"), &["payload"]);
        }
        for i in 1..n {
            b = b.flow(format!("S{}", i - 1), format!("S{i}"));
        }
        b = b.flow_end(format!("S{}", n - 1));
        if with_tfc {
            b = b.with_tfc("TFC");
        }
        let def = b.build().unwrap();
        let mut pb = SecurityPolicy::builder();
        for i in 0..n {
            pb = pb.restrict(format!("S{i}"), "payload", &[&format!("p{}", (i + 1).min(n - 1))]);
        }
        let mut policy = pb.build();
        if with_tfc {
            policy = policy.with_tfc_access("TFC", &def);
        }
        let dir = Directory::from_credentials(people.iter().chain([&designer, &tfc_creds]));
        let tfc = TfcServer::with_clock(tfc_creds, dir.clone(), Arc::new(|| 1_000));
        let initial = DraDocument::new_initial_with_pid(&def, &policy, &designer, "chain").unwrap();
        let mut docs = vec![SealedDocument::new(initial)];
        for (i, p) in people.iter().enumerate() {
            let aea = Aea::new(p.clone(), dir.clone());
            let received = aea.receive(docs[i].clone(), &format!("S{i}")).unwrap();
            let responses = [("payload".to_string(), format!("value-{i}"))];
            let next = if with_tfc {
                let inter = aea.complete_via_tfc(&received, &responses).unwrap();
                tfc.process(inter.document).unwrap().document
            } else {
                aea.complete(&received, &responses).unwrap().document
            };
            docs.push(next);
        }
        Chain { designer, dir, tfc, docs }
    }

    /// The definition of the pinned prefix, spelled out: SHA-256 over the
    /// framed canonical bytes of `[Header, ApplicationDefinition, CER₀ … CERₖ₋₁]`.
    fn reference_digest(doc: &DraDocument, k: usize) -> [u8; 32] {
        let mut parts = vec![doc.header().unwrap(), doc.app_definition().unwrap()];
        parts.extend(doc.results().unwrap().find_children("CER").take(k));
        dra_crypto::sha256(&canonicalize_all(parts))
    }

    /// Reroute the end of a 4-activity chain through an extra audit step.
    fn audit_delta() -> DefinitionDelta {
        DefinitionDelta {
            add_activities: vec![Activity {
                id: "audit".into(),
                participant: "p0".into(),
                join: JoinKind::Any,
                requests: vec![],
                responses: vec!["stamp".into()],
            }],
            add_transitions: vec![
                Transition {
                    from: "S3".into(),
                    to: Target::Activity("audit".into()),
                    condition: None,
                },
                Transition { from: "audit".into(), to: Target::End, condition: None },
            ],
            retire_transitions: vec![("S3".into(), Target::End)],
            add_policy_rules: vec![],
        }
    }

    fn doc() -> DraDocument {
        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["x"])
            .flow_end("A")
            .build()
            .unwrap();
        DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid")
            .unwrap()
    }

    #[test]
    fn wire_is_memoized_and_shared() {
        let sealed = SealedDocument::new(doc());
        let a = sealed.wire();
        let b = sealed.wire();
        assert!(Arc::ptr_eq(&a, &b), "second call must reuse the buffer");
        let clone = sealed.clone();
        assert!(Arc::ptr_eq(&a, &clone.wire()), "clones share the buffer");
        assert_eq!(sealed.size_bytes(), a.len());
    }

    #[test]
    fn from_wire_keeps_received_bytes() {
        let xml = doc().to_xml_string();
        let sealed = SealedDocument::from_wire(&xml).unwrap();
        assert_eq!(*sealed.wire(), xml);
        assert_eq!(sealed.size_bytes(), xml.len());
        assert_eq!(sealed.process_id().unwrap(), "pid");
    }

    #[test]
    fn prefix_digest_changes_with_content() {
        let d = doc();
        let d0 = prefix_digest(&d, 0).unwrap();
        assert_eq!(d0, prefix_digest(&d, 0).unwrap(), "deterministic");

        let designer = Credentials::from_seed("designer", "d");
        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("A", "peter", &["x", "y"])
            .flow_end("A")
            .build()
            .unwrap();
        let other =
            DraDocument::new_initial_with_pid(&def, &SecurityPolicy::public(), &designer, "pid")
                .unwrap();
        assert_ne!(d0, prefix_digest(&other, 0).unwrap());
    }

    #[test]
    fn deref_exposes_document_api() {
        let sealed = SealedDocument::new(doc());
        assert_eq!(sealed.process_id().unwrap(), "pid");
        assert!(sealed.cers().unwrap().is_empty());
    }

    #[test]
    fn prefix_digests_match_the_framed_canonical_prefix() {
        let encrypted = run_chain(16, false).docs.pop().unwrap().into_document();
        let finalized = run_chain(3, true).docs.pop().unwrap().into_document();
        let chain = run_chain(4, false);
        let amended = amend_document(&chain.docs[2], &chain.designer, &audit_delta()).unwrap();
        assert_eq!(encrypted.cers().unwrap().len(), 16);
        assert!(finalized.cers().unwrap().iter().all(|c| c.tfc_signature().is_some()));
        assert!(is_amendment_key(&amended.cers().unwrap().last().unwrap().key));

        for doc in [&encrypted, &finalized, &amended] {
            let n = doc.cers().unwrap().len();
            let whole = reference_digest(doc, n);
            for k in 0..=n {
                let expected = reference_digest(doc, k);
                assert_eq!(prefix_digests(doc, k).unwrap(), (Some(expected), whole), "cut {k}/{n}");
                assert_eq!(prefix_digest(doc, k).unwrap(), expected, "cut {k}/{n}");
            }
            assert_eq!(prefix_digests(doc, n + 1).unwrap(), (None, whole), "cut beyond the CERs");
        }
    }

    #[test]
    fn verifier_issues_the_mark_a_full_pass_would() {
        let chain = run_chain(16, false);
        let dir = &chain.dir;
        let doc = chain.docs[16].document();
        let full = Verifier::new(dir).run(doc).unwrap().report;
        let prev = chain.docs[15].document();
        let incoming =
            trust_mark_for(prev, &Verifier::new(dir).run(prev).unwrap().report, 0).unwrap();
        assert_eq!(
            chain.docs[16].trust(),
            Some(&incoming),
            "the AEA hands on the receive-time mark"
        );

        // matched marks: the one pinning 15 CERs, and one pinning all 16
        for mark in [incoming.clone(), trust_mark_for(doc, &full, 0).unwrap()] {
            let out = Verifier::new(dir).with_mark(&mark).run(doc).unwrap();
            assert!(!out.fell_back);
            assert_eq!(out.reused_cers, mark.verified_cers);
            let expected = trust_mark_for(doc, &out.report, mark.signatures_verified).unwrap();
            assert_eq!(out.mark.as_ref(), Some(&expected));
            assert_eq!(expected.prefix_digest, reference_digest(doc, 16));
        }

        // fallback: a flipped digest byte, a wrong process id, and a mark
        // claiming more CERs than the document has
        let mut flipped = incoming.clone();
        flipped.prefix_digest[7] ^= 0x01;
        let mut wrong_pid = incoming.clone();
        wrong_pid.process_id = "another-process".into();
        let mut too_many = incoming.clone();
        too_many.verified_cers = 17;
        for mark in [flipped, wrong_pid, too_many] {
            let out = Verifier::new(dir).with_mark(&mark).run(doc).unwrap();
            assert!(out.fell_back);
            assert_eq!(out.reused_cers, 0);
            assert_eq!(out.report, full);
            assert_eq!(out.mark, Some(trust_mark_for(doc, &full, 0).unwrap()));
        }

        // no mark at all: a full pass that still issues one
        let out = Verifier::new(dir).with_mark(None::<&TrustMark>).run(doc).unwrap();
        assert!(!out.fell_back);
        assert_eq!(out.mark, Some(trust_mark_for(doc, &full, 0).unwrap()));
    }

    #[test]
    fn tfc_onward_mark_matches_the_recomputed_prefix() {
        let chain = run_chain(3, true);
        let aea = Aea::new(Credentials::from_seed("p2", "sealed-p2"), chain.dir.clone());
        let received = aea.receive(chain.docs[2].clone(), "S2").unwrap();
        let inter = aea
            .complete_via_tfc(&received, &[("payload".to_string(), "value-2".to_string())])
            .unwrap();
        // sealed hand-off (mark reused) and wire hand-off (no mark) agree
        let via_mark = chain.tfc.receive(inter.document.clone()).unwrap();
        let via_wire = chain.tfc.receive(inter.document.to_xml_string()).unwrap();
        assert_eq!(via_mark.trust.verified_cers, 2);
        assert_eq!(via_mark.trust.prefix_digest, reference_digest(&inter.document, 2));
        assert_eq!(via_mark.trust.prefix_digest, via_wire.trust.prefix_digest);
        assert_eq!(via_mark.report.signatures_verified, 1, "only the new CER is checked");
    }

    #[test]
    fn clones_share_one_tree_and_unsealing_copies_on_write() {
        let sealed = run_chain(2, false).docs.pop().unwrap();
        let other = sealed.clone();
        assert!(std::ptr::eq(sealed.document(), other.document()), "a clone shares the tree");
        let wire = sealed.wire();
        assert!(Arc::ptr_eq(&wire, &other.wire()), "and the wire memo, even computed later");
        let bytes = other.document().to_xml_string();

        let mut mutated = sealed.into_document();
        mutated.push_cer(Element::new("CER").attr("activity", "forged")).unwrap();
        assert_ne!(mutated.to_xml_string(), bytes);
        assert_eq!(other.document().to_xml_string(), bytes, "the other handle's tree is intact");
        assert_eq!(*other.wire(), *wire, "and so is its wire");

        // the last handle moves the tree out instead of copying it
        let header = other.document().header().unwrap() as *const Element;
        let owned = other.into_document();
        assert!(std::ptr::eq(owned.header().unwrap(), header));
    }
}

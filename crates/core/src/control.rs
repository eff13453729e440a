//! The control layer: requests, the auditor and processor nodes.
//!
//! Figure 5 of the paper: each processor node has a request handler (accepts
//! query requests and returns results with proofs), an auditor (communicates
//! with the ledger in the storage layer to keep track of data changes) and a
//! transaction manager (controls execution of queries in the storage).
//! The global message queue and master node of the paper's deployment are
//! simulated by calling [`ProcessorNode::handle`] directly; the 2PC
//! machinery for multi-node serializability lives in `spitz-txn`.

use std::sync::Arc;

use spitz_ledger::{CommitPipeline, Digest, Ledger, LedgerProof, LedgerRangeProof, VerifiedRange};
use spitz_txn::{CcScheme, IsolationLevel, MvccStore, TimestampOracle, TransactionManager};

use crate::error::DbError;
use crate::Result;

/// A client request, as accepted by the request handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Write one key/value pair.
    Put {
        /// Key to write.
        key: Vec<u8>,
        /// Value to write.
        value: Vec<u8>,
    },
    /// Write a batch atomically (sealed as one ledger block).
    PutBatch {
        /// The key/value pairs to commit together.
        writes: Vec<(Vec<u8>, Vec<u8>)>,
    },
    /// Point read.
    Get {
        /// Key to read.
        key: Vec<u8>,
        /// Whether to return an integrity proof.
        verify: bool,
    },
    /// Range read over `start <= key < end`.
    Range {
        /// Inclusive lower bound.
        start: Vec<u8>,
        /// Exclusive upper bound.
        end: Vec<u8>,
        /// Whether to return an integrity proof.
        verify: bool,
    },
    /// Fetch the current database digest.
    Digest,
}

impl Request {
    /// Parse the tiny text protocol used by the examples:
    /// `PUT <key> <value>` · `GET <key>` · `VGET <key>` ·
    /// `RANGE <start> <end>` · `VRANGE <start> <end>` · `DIGEST`.
    pub fn parse(line: &str) -> Result<Request> {
        let mut parts = line.split_whitespace();
        let bad = |msg: &str| DbError::BadRequest(msg.to_string());
        match parts.next().map(|s| s.to_ascii_uppercase()) {
            Some(cmd) if cmd == "PUT" => {
                let key = parts.next().ok_or_else(|| bad("PUT needs a key"))?;
                let value = parts.next().ok_or_else(|| bad("PUT needs a value"))?;
                Ok(Request::Put {
                    key: key.as_bytes().to_vec(),
                    value: value.as_bytes().to_vec(),
                })
            }
            Some(cmd) if cmd == "GET" || cmd == "VGET" => {
                let key = parts.next().ok_or_else(|| bad("GET needs a key"))?;
                Ok(Request::Get {
                    key: key.as_bytes().to_vec(),
                    verify: cmd == "VGET",
                })
            }
            Some(cmd) if cmd == "RANGE" || cmd == "VRANGE" => {
                let start = parts.next().ok_or_else(|| bad("RANGE needs a start"))?;
                let end = parts.next().ok_or_else(|| bad("RANGE needs an end"))?;
                Ok(Request::Range {
                    start: start.as_bytes().to_vec(),
                    end: end.as_bytes().to_vec(),
                    verify: cmd == "VRANGE",
                })
            }
            Some(cmd) if cmd == "DIGEST" => Ok(Request::Digest),
            _ => Err(bad("unknown command")),
        }
    }
}

/// The server's answer to a request.
#[derive(Debug, Clone)]
pub enum Response {
    /// A write was committed; carries the new digest.
    Committed(Digest),
    /// A point read result, with a proof when verification was requested.
    Value {
        /// The value, if the key exists.
        value: Option<Vec<u8>>,
        /// The proof, when requested.
        proof: Option<LedgerProof>,
    },
    /// A range read result, with a combined proof when requested.
    Entries {
        /// The matching entries in key order.
        entries: Vec<(Vec<u8>, Vec<u8>)>,
        /// The combined proof, when requested.
        proof: Option<LedgerRangeProof>,
    },
    /// The current database digest.
    Digest(Digest),
}

/// The auditor: the component that "communicates with the ledger in the
/// storage layer to keep track of data changes" and fetches proofs.
pub struct Auditor {
    ledger: Arc<Ledger>,
}

impl Auditor {
    /// Create an auditor over a ledger.
    pub fn new(ledger: Arc<Ledger>) -> Self {
        Auditor { ledger }
    }

    /// The audited ledger.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// Record a committed batch of writes in the ledger; returns the new
    /// digest (the "proof" handed back to the processor in the paper's write
    /// path). A storage failure while sealing the block (disk full in a
    /// durable store) surfaces as an error — the ledger has already rolled
    /// its index back, so the failed writes are not readable.
    pub fn record_writes(
        &self,
        writes: Vec<(Vec<u8>, Vec<u8>)>,
        statement: &str,
    ) -> Result<Digest> {
        Ok(self.ledger.try_append_block(writes, statement)?)
    }

    /// Fetch the proof for a key (read path step 3).
    pub fn proof_for(&self, key: &[u8]) -> (Option<Vec<u8>>, LedgerProof) {
        self.ledger.get_with_proof(key)
    }

    /// Fetch a combined proof for a range.
    pub fn range_proof(&self, start: &[u8], end: &[u8]) -> VerifiedRange {
        self.ledger.range_with_proof(start, end)
    }

    /// The current digest.
    pub fn digest(&self) -> Digest {
        self.ledger.digest()
    }
}

/// The request handler: the thin front end that turns text lines into
/// [`Request`]s and hands them to a processor node.
pub struct RequestHandler {
    node: Arc<ProcessorNode>,
}

impl RequestHandler {
    /// Create a handler bound to one processor node.
    pub fn new(node: Arc<ProcessorNode>) -> Self {
        RequestHandler { node }
    }

    /// Parse and execute a text command.
    pub fn execute_line(&self, line: &str) -> Result<Response> {
        let request = Request::parse(line)?;
        self.node.handle(request)
    }
}

/// One processor node of the control layer.
pub struct ProcessorNode {
    auditor: Auditor,
    oracle: Arc<TimestampOracle>,
    manager: TransactionManager,
    /// When present, commits are routed through the group-commit pipeline
    /// (concurrent writers coalesce into shared blocks, fsync amortized by
    /// its `DurabilityPolicy`) instead of sealing a block inline.
    pipeline: Option<Arc<CommitPipeline>>,
}

impl ProcessorNode {
    /// Create a processor node over a ledger, committing inline (no
    /// pipeline).
    pub fn new(ledger: Arc<Ledger>, scheme: CcScheme) -> Self {
        Self::with_pipeline(ledger, scheme, None)
    }

    /// Create a processor node that routes commits through `pipeline` when
    /// one is given.
    pub fn with_pipeline(
        ledger: Arc<Ledger>,
        scheme: CcScheme,
        pipeline: Option<Arc<CommitPipeline>>,
    ) -> Self {
        let oracle = Arc::new(TimestampOracle::new());
        ProcessorNode {
            auditor: Auditor::new(ledger),
            oracle: Arc::clone(&oracle),
            manager: TransactionManager::new(Arc::new(MvccStore::new()), oracle, scheme),
            pipeline,
        }
    }

    /// The node's auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// The node's commit pipeline, when commits are grouped.
    pub fn pipeline(&self) -> Option<&Arc<CommitPipeline>> {
        self.pipeline.as_ref()
    }

    /// The node's transaction manager.
    pub fn manager(&self) -> &TransactionManager {
        &self.manager
    }

    /// Execute one request, following the read/write steps of Section 5.1.
    pub fn handle(&self, request: Request) -> Result<Response> {
        match request {
            Request::Put { key, value } => self.commit_writes(vec![(key, value)], "PUT"),
            Request::PutBatch { writes } => self.commit_writes(writes, "PUT BATCH"),
            Request::Get { key, verify } => {
                if verify {
                    let (value, proof) = self.auditor.proof_for(&key);
                    Ok(Response::Value {
                        value,
                        proof: Some(proof),
                    })
                } else {
                    Ok(Response::Value {
                        value: self.auditor.ledger().get(&key),
                        proof: None,
                    })
                }
            }
            Request::Range { start, end, verify } => {
                if verify {
                    let (entries, proof) = self.auditor.range_proof(&start, &end);
                    Ok(Response::Entries {
                        entries,
                        proof: Some(proof),
                    })
                } else {
                    Ok(Response::Entries {
                        entries: self.auditor.ledger().range(&start, &end),
                        proof: None,
                    })
                }
            }
            Request::Digest => Ok(Response::Digest(self.auditor.digest())),
        }
    }

    /// The write path of Section 5.1: run the writes through the local
    /// transaction manager (MVCC versions) and have the auditor record the
    /// block in the ledger (via the group-commit pipeline when one is
    /// configured). The ledger index holds the values; nothing else is
    /// persisted per write.
    ///
    /// If the ledger commit fails (e.g. disk full in a durable store), the
    /// ledger rolls its own index back and the error is returned — the
    /// failed writes are not readable, since the read path serves from the
    /// ledger index. The MVCC versions written before the failure remain:
    /// a retried commit simply writes newer ones, though explicit
    /// transactions may conflict against the orphaned versions until then.
    fn commit_writes(&self, writes: Vec<(Vec<u8>, Vec<u8>)>, statement: &str) -> Result<Response> {
        let mut txn = self.manager.begin(IsolationLevel::Serializable);
        for (key, value) in &writes {
            self.manager.write(&mut txn, key, value.clone())?;
        }
        self.manager.commit(&mut txn)?;

        let digest = match &self.pipeline {
            Some(pipeline) => pipeline.commit(writes, statement).map_err(DbError::from)?,
            None => self.auditor.record_writes(writes, statement)?,
        };
        let _ = self.oracle.allocate();
        Ok(Response::Committed(digest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spitz_storage::InMemoryChunkStore;

    fn node() -> Arc<ProcessorNode> {
        let ledger = Arc::new(Ledger::new(InMemoryChunkStore::shared()));
        Arc::new(ProcessorNode::new(ledger, CcScheme::Occ))
    }

    #[test]
    fn request_parsing() {
        assert_eq!(
            Request::parse("PUT account-1 100").unwrap(),
            Request::Put {
                key: b"account-1".to_vec(),
                value: b"100".to_vec()
            }
        );
        assert_eq!(
            Request::parse("vget account-1").unwrap(),
            Request::Get {
                key: b"account-1".to_vec(),
                verify: true
            }
        );
        assert_eq!(
            Request::parse("RANGE a z").unwrap(),
            Request::Range {
                start: b"a".to_vec(),
                end: b"z".to_vec(),
                verify: false
            }
        );
        assert_eq!(Request::parse("DIGEST").unwrap(), Request::Digest);
        assert!(Request::parse("PUT onlykey").is_err());
        assert!(Request::parse("NONSENSE").is_err());
        assert!(Request::parse("").is_err());
    }

    #[test]
    fn write_then_read_through_the_processor() {
        let node = node();
        let response = node
            .handle(Request::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap();
        assert!(matches!(response, Response::Committed(_)));

        match node
            .handle(Request::Get {
                key: b"k".to_vec(),
                verify: false,
            })
            .unwrap()
        {
            Response::Value { value, proof } => {
                assert_eq!(value, Some(b"v".to_vec()));
                assert!(proof.is_none());
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn verified_reads_carry_valid_proofs() {
        let node = node();
        node.handle(Request::PutBatch {
            writes: (0..50u32)
                .map(|i| {
                    (
                        format!("k{i:03}").into_bytes(),
                        format!("v{i}").into_bytes(),
                    )
                })
                .collect(),
        })
        .unwrap();

        match node
            .handle(Request::Get {
                key: b"k007".to_vec(),
                verify: true,
            })
            .unwrap()
        {
            Response::Value { value, proof } => {
                let proof = proof.expect("proof requested");
                assert!(proof.verify(b"k007", value.as_deref()));
            }
            other => panic!("unexpected response {other:?}"),
        }

        match node
            .handle(Request::Range {
                start: b"k010".to_vec(),
                end: b"k020".to_vec(),
                verify: true,
            })
            .unwrap()
        {
            Response::Entries { entries, proof } => {
                assert_eq!(entries.len(), 10);
                assert!(proof.expect("proof requested").verify(&entries));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn request_handler_round_trips_text_commands() {
        let node = node();
        let handler = RequestHandler::new(Arc::clone(&node));
        handler.execute_line("PUT order-1 shipped").unwrap();
        match handler.execute_line("GET order-1").unwrap() {
            Response::Value { value, .. } => assert_eq!(value, Some(b"shipped".to_vec())),
            other => panic!("unexpected response {other:?}"),
        }
        match handler.execute_line("DIGEST").unwrap() {
            Response::Digest(d) => assert_eq!(d.block_height, 0),
            other => panic!("unexpected response {other:?}"),
        }
        assert!(handler.execute_line("BOGUS").is_err());
    }
}

//! The typed table layer of a [`ShardedDb`]: schemas, records and their
//! analytical queries, kept entirely in the ledgers.
//!
//! A table keeps no data of its own. A record is one cell per column plus
//! one index cell per column (see [`crate::cell`]), written as one
//! [`ShardedDb::put_batch`]: one block when every cell lands on one shard,
//! two-phase commit when they span shards. Every typed read and query is a
//! merged [`ShardedDb::range_unverified`]. The catalog of schemas is one
//! chunk under the [`CATALOG_ROOT`] named root in shard 0's store.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spitz_storage::{Chunk, ChunkKind};

use crate::cell::{index_prefix, prefix_end, UniversalKey};
use crate::error::DbError;
use crate::schema::{ColumnDef, ColumnType, Record, Schema, Value};
use crate::sharded::{ShardedDb, ShardedDigest};
use crate::Result;

/// Named root (in shard 0's store) under which the typed-table catalog
/// (the set of [`Schema`]s created with [`ShardedDb::create_table`]) is
/// persisted, so a reopened database still knows its tables.
pub(crate) const CATALOG_ROOT: &str = "spitz/catalog";

/// A typed table. Its records live only in the ledgers; the table holds
/// what names them.
pub(crate) struct Table {
    schema: Schema,
    /// First universal-key column id of this table. Column ids are
    /// allocated globally (`base + position`), so two tables never share a
    /// universal-key range.
    column_base: u32,
    /// Lower bound of the next version timestamp this process hands out.
    /// A version's timestamp comes from the ledger (one above the record's
    /// newest); this counter only keeps concurrent inserts of one key apart.
    next: Mutex<u64>,
}

impl Table {
    fn new(schema: Schema, column_base: u32) -> Table {
        Table {
            schema,
            column_base,
            next: Mutex::new(1),
        }
    }

    /// The universal-key column id of a named column, which must hold
    /// `column_type` values.
    fn column_id(&self, column: &str, column_type: ColumnType) -> Result<u32> {
        let position = self.schema.column_id(column)?;
        let expected = self.schema.columns[position as usize].column_type;
        if expected != column_type {
            return Err(DbError::TypeMismatch {
                column: column.to_string(),
                expected: expected.name(),
            });
        }
        Ok(self.column_base + position)
    }
}

/// The tables of one database, by name.
pub(crate) type Tables = RwLock<HashMap<String, Arc<Table>>>;

const CATALOG_MAGIC: &[u8] = b"spitz-catalog-v2\0";

/// Magic of the catalog written before records carried index cells.
const CATALOG_MAGIC_V1: &[u8] = b"spitz-catalog\0";

/// Payload of the catalog chunk: magic ‖ table count ‖ per table (name,
/// column base, column count, per column (name, type tag)). Uses the shared
/// `spitz_index::codec` framing helpers.
fn encode_catalog(tables: &[(&Schema, u32)]) -> Vec<u8> {
    use spitz_index::codec::{put_bytes, put_u32};
    let mut out = Vec::new();
    out.extend_from_slice(CATALOG_MAGIC);
    put_u32(&mut out, tables.len() as u32);
    for (schema, column_base) in tables {
        put_bytes(&mut out, schema.table.as_bytes());
        put_u32(&mut out, *column_base);
        put_u32(&mut out, schema.columns.len() as u32);
        for column in &schema.columns {
            put_bytes(&mut out, column.name.as_bytes());
            out.push(match column.column_type {
                ColumnType::Integer => 0,
                ColumnType::Text => 1,
                ColumnType::Bytes => 2,
            });
        }
    }
    out
}

/// Inverse of [`encode_catalog`]: `(schema, column_base)` per table. `None`
/// for malformed bytes, including a table whose column range reaches the
/// reserved [`INDEX_COLUMN_ID`](crate::cell::INDEX_COLUMN_ID).
fn decode_catalog(bytes: &[u8]) -> Option<Vec<(Schema, u32)>> {
    let bytes = bytes.strip_prefix(CATALOG_MAGIC)?;
    let mut r = spitz_index::codec::Reader::new(bytes);
    // A table takes at least 12 bytes (name length, column base, column
    // count) and a column at least 5 (name length, type tag).
    let table_count = r.count(12)?;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let table = String::from_utf8(r.bytes()?.to_vec()).ok()?;
        let column_base = r.u32()?;
        let column_count = r.count(5)?;
        column_base.checked_add(u32::try_from(column_count).ok()?)?;
        let mut columns = Vec::with_capacity(column_count);
        for _ in 0..column_count {
            let name = String::from_utf8(r.bytes()?.to_vec()).ok()?;
            let column_type = match r.u8()? {
                0 => ColumnType::Integer,
                1 => ColumnType::Text,
                2 => ColumnType::Bytes,
                _ => return None,
            };
            columns.push(ColumnDef { name, column_type });
        }
        tables.push((Schema { table, columns }, column_base));
    }
    r.is_exhausted().then_some(tables)
}

impl ShardedDb {
    /// Create a table from a schema, persisted under the `spitz/catalog`
    /// named root in shard 0's store so it survives [`ShardedDb::open`]. The
    /// table gets its own globally allocated universal-key column-id range,
    /// so no two tables' cells ever share a key prefix. Creating a table
    /// that exists with the identical schema is a no-op; another schema
    /// under an existing name, or a column range that would reach the
    /// reserved index-cell column id, is a [`DbError::BadRequest`].
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        // The tables lock is held across the catalog publication: two
        // concurrent `create_table` calls must not race the read-encode-
        // publish cycle, or the later root write could durably drop the
        // earlier table.
        let mut tables = self.tables.write();
        if let Some(existing) = tables.get(&schema.table) {
            if existing.schema == schema {
                return Ok(());
            }
            return Err(DbError::BadRequest(format!(
                "table {} exists with another schema",
                schema.table
            )));
        }
        let column_base = tables
            .values()
            .map(|t| t.column_base + t.schema.columns.len() as u32)
            .max()
            .unwrap_or(0);
        u32::try_from(schema.columns.len())
            .ok()
            .and_then(|count| column_base.checked_add(count))
            .ok_or_else(|| {
                DbError::BadRequest(format!("no column ids left for table {}", schema.table))
            })?;
        let table = Table::new(schema, column_base);
        let mut catalog: Vec<(&Schema, u32)> = tables
            .values()
            .map(|t| (&t.schema, t.column_base))
            .collect();
        catalog.push((&table.schema, column_base));
        let payload = encode_catalog(&catalog);
        let store = self.shard(0).store();
        let address = store.try_put(Chunk::new(ChunkKind::Meta, payload))?;
        store.try_set_root(CATALOG_ROOT, address)?;
        tables.insert(table.schema.table.clone(), Arc::new(table));
        Ok(())
    }

    /// Load the persisted table catalog, if any. A catalog written before
    /// records carried index cells is refused: its tables' queries would
    /// miss every record.
    pub(crate) fn reload_catalog(&self) -> Result<()> {
        let store = self.shard(0).store();
        let Some(address) = store.root(CATALOG_ROOT) else {
            return Ok(());
        };
        let chunk = store.get_kind(&address, ChunkKind::Meta)?;
        let catalog = decode_catalog(chunk.data()).ok_or_else(|| {
            DbError::Storage(if chunk.data().starts_with(CATALOG_MAGIC_V1) {
                format!("catalog chunk {address} predates index cells")
            } else {
                format!("corrupt catalog chunk {address}")
            })
        })?;
        let mut tables = self.tables.write();
        for (schema, column_base) in catalog {
            let table = Table::new(schema, column_base);
            tables.insert(table.schema.table.clone(), Arc::new(table));
        }
        Ok(())
    }

    /// The named table.
    fn table(&self, table: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| DbError::UnknownColumn(format!("table {table}")))
    }

    /// The newest version of a record, read from its own cells: its
    /// timestamp and the columns written at that timestamp.
    fn latest_version(&self, t: &Table, primary_key: &str) -> Result<Option<(u64, Record)>> {
        let mut latest: Option<(u64, Record)> = None;
        for (position, column) in t.schema.columns.iter().enumerate() {
            let prefix =
                UniversalKey::cell_prefix(t.column_base + position as u32, primary_key.as_bytes());
            for (ukey, encoded) in self.range_unverified(&prefix, &prefix_end(&prefix))? {
                let cell = UniversalKey::decode(&ukey)?;
                if cell.primary_key != primary_key.as_bytes() {
                    continue;
                }
                let (timestamp, record) =
                    latest.get_or_insert_with(|| (cell.timestamp, Record::new(primary_key)));
                if cell.timestamp > *timestamp {
                    *timestamp = cell.timestamp;
                    record.values.clear();
                }
                if cell.timestamp == *timestamp {
                    record
                        .values
                        .insert(column.name.clone(), Value::decode(&encoded)?);
                }
            }
        }
        Ok(latest)
    }

    /// Insert (or append a new version of) a record as one
    /// [`ShardedDb::put_batch`]: one cell per column, and beside each one
    /// index cell that [`ShardedDb::query_eq`] and
    /// [`ShardedDb::query_int_range`] read. The version's timestamp is one
    /// above the record's newest in the ledgers, so a failed insert or a
    /// reopen never reorders versions.
    ///
    /// With more than one shard, two concurrent inserts of one primary key
    /// that write the same index cell (the same value in some column) can
    /// meet in two-phase commit; the loser fails with a
    /// [`DbError::TxnConflict`] and nothing of it becomes visible, so the
    /// caller may retry it.
    pub fn insert_record(&self, table: &str, record: &Record) -> Result<ShardedDigest> {
        let t = self.table(table)?;
        t.schema.validate(record)?;
        let primary_key = record.primary_key.as_bytes();
        let after_newest = self
            .latest_version(&t, &record.primary_key)?
            .map_or(0, |(timestamp, _)| timestamp.saturating_add(1));
        let timestamp = {
            let mut next = t.next.lock();
            let timestamp = after_newest.max(*next);
            *next = timestamp.saturating_add(1);
            timestamp
        };

        let mut writes = Vec::with_capacity(2 * record.values.len());
        for (column, value) in &record.values {
            let column_id = t.column_base + t.schema.column_id(column)?;
            let encoded = value.encode();
            let ukey = UniversalKey::new(column_id, primary_key, timestamp, &encoded);
            writes.push((ukey.encode(), encoded));
            let mut index_key = index_prefix(column_id, value);
            index_key.extend_from_slice(primary_key);
            writes.push((index_key, Vec::new()));
        }
        self.put_batch(writes)
    }

    /// Read back the latest version of a record.
    pub fn get_record(&self, table: &str, primary_key: &str) -> Result<Option<Record>> {
        let t = self.table(table)?;
        Ok(self
            .latest_version(&t, primary_key)?
            .map(|(_, record)| record))
    }

    /// Analytical lookup: primary keys (sorted) of records whose `column`
    /// equals `value` in some version, read as one range of the column's
    /// index cells. A `value` of another type than the column's is a
    /// [`DbError::TypeMismatch`].
    pub fn query_eq(&self, table: &str, column: &str, value: &Value) -> Result<Vec<String>> {
        let t = self.table(table)?;
        let prefix = index_prefix(t.column_id(column, value.column_type())?, value);
        self.indexed_keys(&prefix, &prefix_end(&prefix))
    }

    /// Analytical range lookup over an integer column, e.g. "all items with
    /// stock-level lower than 50": primary keys (sorted) of records whose
    /// `column` held a value in `low..high`. Empty when `low >= high`; a
    /// non-integer column is a [`DbError::TypeMismatch`].
    pub fn query_int_range(
        &self,
        table: &str,
        column: &str,
        low: i64,
        high: i64,
    ) -> Result<Vec<String>> {
        let t = self.table(table)?;
        let column_id = t.column_id(column, ColumnType::Integer)?;
        if low >= high {
            return Ok(Vec::new());
        }
        let start = index_prefix(column_id, &Value::Integer(low));
        let end = index_prefix(column_id, &Value::Integer(high));
        self.indexed_keys(&start, &end)
    }

    /// The primary keys, sorted and deduplicated, of the index cells in
    /// `start..end`. Each key's primary key follows its first `start.len()`
    /// bytes: `start` is the index prefix of one value, or of an integer,
    /// whose encoding has a fixed width.
    fn indexed_keys(&self, start: &[u8], end: &[u8]) -> Result<Vec<String>> {
        let keys: BTreeSet<String> = self
            .range_unverified(start, end)?
            .into_iter()
            .filter_map(|(key, _)| {
                let primary_key = key.get(start.len()..)?;
                Some(String::from_utf8_lossy(primary_key).into_owned())
            })
            .collect();
        Ok(keys.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::SpitzConfig;
    use spitz_storage::{ChunkStore, InMemoryChunkStore};

    /// A one-shard database over `store`.
    fn over(store: &Arc<dyn ChunkStore>) -> Result<ShardedDb> {
        ShardedDb::with_stores(vec![Arc::clone(store)], SpitzConfig::default())
    }

    #[test]
    fn typed_records_and_analytics() {
        for shards in [1, 4] {
            let db = ShardedDb::in_memory(shards);
            db.create_table(Schema::new(
                "items",
                vec![("name", ColumnType::Text), ("stock", ColumnType::Integer)],
            ))
            .unwrap();

            for i in 0..30 {
                let record = Record::new(format!("item-{i:03}"))
                    .with("name", Value::Text(format!("widget-{i}")))
                    .with("stock", Value::Integer(i));
                db.insert_record("items", &record).unwrap();
            }

            // Point read of a typed record.
            let record = db.get_record("items", "item-007").unwrap().unwrap();
            assert_eq!(record.get("stock"), Some(&Value::Integer(7)));
            assert_eq!(record.get("name"), Some(&Value::Text("widget-7".into())));
            assert!(db.get_record("items", "item-999").unwrap().is_none());

            // "getting all items with stock-level lower than 5"
            let low = db.query_int_range("items", "stock", 0, 5).unwrap();
            assert_eq!(low.len(), 5);
            assert!(low.contains(&"item-004".to_string()));

            // Equality over a text column.
            let named = db
                .query_eq("items", "name", &Value::Text("widget-12".into()))
                .unwrap();
            assert_eq!(named, vec!["item-012".to_string()]);
        }
    }

    #[test]
    fn schema_violations_are_rejected() {
        let db = ShardedDb::in_memory(1);
        db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
            .unwrap();
        let bad = Record::new("pk").with("n", Value::Text("not a number".into()));
        assert!(matches!(
            db.insert_record("t", &bad),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(db
            .insert_record("missing-table", &Record::new("pk"))
            .is_err());
        assert!(db.get_record("missing-table", "pk").is_err());
        assert!(db.query_eq("t", "missing-col", &Value::Integer(1)).is_err());

        // A query whose value or range does not fit the column's type is an
        // error, not an empty answer.
        db.create_table(Schema::new("s", vec![("name", ColumnType::Text)]))
            .unwrap();
        assert!(matches!(
            db.query_eq("t", "n", &Value::Text("1".into())),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.query_eq("s", "name", &Value::Bytes(b"ada".to_vec())),
            Err(DbError::TypeMismatch { .. })
        ));
        assert!(matches!(
            db.query_int_range("s", "name", 0, 10),
            Err(DbError::TypeMismatch { .. })
        ));

        // A reversed or empty integer range is empty.
        db.insert_record("t", &Record::new("pk").with("n", Value::Integer(5)))
            .unwrap();
        assert_eq!(db.query_int_range("t", "n", 0, 10).unwrap(), vec!["pk"]);
        assert!(db.query_int_range("t", "n", 10, 0).unwrap().is_empty());
        assert!(db.query_int_range("t", "n", 5, 5).unwrap().is_empty());
    }

    #[test]
    fn decode_catalog_refuses_counts_the_payload_cannot_hold() {
        use spitz_index::codec::{put_bytes, put_u32};
        let mut tables = CATALOG_MAGIC.to_vec();
        put_u32(&mut tables, u32::MAX);
        assert!(decode_catalog(&tables).is_none());

        let mut columns = CATALOG_MAGIC.to_vec();
        put_u32(&mut columns, 1);
        put_bytes(&mut columns, b"t");
        put_u32(&mut columns, 0);
        put_u32(&mut columns, u32::MAX);
        assert!(decode_catalog(&columns).is_none());
    }

    #[test]
    fn a_catalog_with_a_hostile_table_count_fails_the_open() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        {
            let db = over(&store).unwrap();
            db.create_table(Schema::new("t", vec![("n", ColumnType::Integer)]))
                .unwrap();
        }
        let address = store.root(CATALOG_ROOT).expect("catalog published");
        let mut bytes = store.get(&address).unwrap().data().to_vec();
        let count = CATALOG_MAGIC.len();
        bytes[count..count + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        let patched = store.try_put(Chunk::new(ChunkKind::Meta, bytes)).unwrap();
        store.try_set_root(CATALOG_ROOT, patched).unwrap();

        let reopened = over(&store);
        assert!(
            matches!(reopened, Err(DbError::Storage(reason)) if reason.contains("corrupt catalog"))
        );
    }

    #[test]
    fn a_catalog_from_before_index_cells_fails_the_open_typed() {
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let schema = Schema::new("t", vec![("n", ColumnType::Integer)]);
        let mut bytes = CATALOG_MAGIC_V1.to_vec();
        bytes.extend_from_slice(&encode_catalog(&[(&schema, 0)])[CATALOG_MAGIC.len()..]);
        store
            .try_set_root(
                CATALOG_ROOT,
                store.try_put(Chunk::new(ChunkKind::Meta, bytes)).unwrap(),
            )
            .unwrap();

        let reopened = over(&store);
        assert!(
            matches!(reopened, Err(DbError::Storage(reason)) if reason.contains("predates index cells"))
        );
    }

    #[test]
    fn no_table_column_reaches_the_reserved_index_column_id() {
        let schema = |table: &str, columns: &[&'static str]| {
            Schema::new(
                table,
                columns.iter().map(|c| (*c, ColumnType::Integer)).collect(),
            )
        };
        let last = crate::cell::INDEX_COLUMN_ID - 1;
        assert!(decode_catalog(&encode_catalog(&[(&schema("t", &["a"]), last)])).is_some());
        assert!(decode_catalog(&encode_catalog(&[(&schema("t", &["a", "b"]), last)])).is_none());

        // `create_table` allocates under the same bound.
        let store: Arc<dyn ChunkStore> = InMemoryChunkStore::shared();
        let catalog = encode_catalog(&[(&schema("t", &["a"]), last - 1)]);
        store
            .try_set_root(
                CATALOG_ROOT,
                store.try_put(Chunk::new(ChunkKind::Meta, catalog)).unwrap(),
            )
            .unwrap();
        let db = over(&store).unwrap();
        assert!(matches!(
            db.create_table(schema("u", &["a", "b"])),
            Err(DbError::BadRequest(_))
        ));
        assert!(db.get_record("u", "pk").is_err());
        db.create_table(schema("v", &["a"])).unwrap();
        db.insert_record("v", &Record::new("pk").with("a", Value::Integer(1)))
            .unwrap();
        assert_eq!(
            db.query_int_range("v", "a", 0, 2).unwrap(),
            vec!["pk".to_string()]
        );
    }
}

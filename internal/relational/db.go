package relational

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// DB is a named collection of tables.
type DB struct {
	tables   map[string]*Table
	indexGen atomic.Uint64
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: make(map[string]*Table)}
}

// CreateTable registers a new empty table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("relational: table %s already exists", name)
	}
	t := NewTable(name, schema)
	t.indexGen = &db.indexGen
	db.tables[key] = t
	return t, nil
}

// IndexGen returns the DB's index generation: every index build on one of
// its tables (CreateIndex, and so a restored table's deferred builds at
// its first append) advances it. A statement prepared at an earlier
// generation chose its access paths without the newer indexes; callers
// that cache prepared statements compare generations and prepare again.
// Safe to call concurrently with the writer.
func (db *DB) IndexGen() uint64 { return db.indexGen.Load() }

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[strings.ToLower(name)] }

// Tables returns the number of tables.
func (db *DB) Tables() int { return len(db.tables) }

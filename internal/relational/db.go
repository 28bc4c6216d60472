package relational

import (
	"fmt"
	"strings"
)

// DB is a named collection of tables.
type DB struct {
	tables map[string]*Table
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
	db.tables[key] = t
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[strings.ToLower(name)] }

// Tables returns the number of tables.
func (db *DB) Tables() int { return len(db.tables) }

package services

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"dandelion/internal/sqlmini"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func TestObjectStoreCRUD(t *testing.T) {
	store := NewObjectStore()
	srv, err := StartObjectStore(store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// PUT via HTTP.
	req, _ := http.NewRequest(http.MethodPut, srv.URL()+"/bkt/key1", bytes.NewReader([]byte("v1")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d", resp.StatusCode)
	}

	code, body := get(t, srv.URL()+"/bkt/key1")
	if code != 200 || string(body) != "v1" {
		t.Fatalf("get = %d %q", code, body)
	}
	if store.BytesServed() != 2 {
		t.Fatalf("bytes served = %d", store.BytesServed())
	}

	// Direct API + list.
	store.Put("bkt", "key2", []byte("v2"))
	code, body = get(t, srv.URL()+"/bkt/")
	if code != 200 {
		t.Fatalf("list status = %d", code)
	}
	var keys []string
	json.Unmarshal(body, &keys)
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}

	code, _ = get(t, srv.URL()+"/bkt/missing")
	if code != 404 {
		t.Fatalf("missing = %d", code)
	}

	// Delete.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL()+"/bkt/key1", nil)
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if _, ok := store.Get("bkt", "key1"); ok {
		t.Fatal("delete did not remove object")
	}

	// Bad puts.
	req, _ = http.NewRequest(http.MethodPut, srv.URL()+"/nokey", bytes.NewReader(nil))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bucket-less put = %d", resp.StatusCode)
	}
}

func TestAuthService(t *testing.T) {
	auth := NewAuthService()
	auth.Grant("tok123", []string{"http://a/logs", "http://b/logs"})
	srv, err := StartAuthService(auth)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := post(t, srv.URL()+"/auth", "tok123")
	if code != 200 {
		t.Fatalf("auth = %d", code)
	}
	var eps []string
	json.Unmarshal(body, &eps)
	if len(eps) != 2 || eps[0] != "http://a/logs" {
		t.Fatalf("endpoints = %v", eps)
	}

	code, _ = post(t, srv.URL()+"/auth", "wrong")
	if code != http.StatusUnauthorized {
		t.Fatalf("bad token = %d", code)
	}

	// Query-parameter form.
	code, _ = get(t, srv.URL()+"/auth?token=tok123")
	if code != 200 {
		t.Fatalf("query token = %d", code)
	}
}

func TestLogShard(t *testing.T) {
	shard := &LogShard{Name: "s1", Lines: []string{"GET /a 200", "GET /b 500"}}
	srv, err := StartLogShard(shard)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := get(t, srv.URL()+"/logs")
	if code != 200 {
		t.Fatalf("logs = %d", code)
	}
	text := string(body)
	if !strings.Contains(text, "# shard s1") || !strings.Contains(text, "GET /b 500") {
		t.Fatalf("body = %q", text)
	}
}

func TestLLMService(t *testing.T) {
	llm := &LLMService{}
	srv, err := StartLLMService(llm)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	prompt := "Schema: sales(region TEXT, amount INT)\nQuestion: How many sales are there?"
	code, body := post(t, srv.URL()+"/v1/generate", prompt)
	if code != 200 {
		t.Fatalf("llm = %d", code)
	}
	var out map[string]string
	json.Unmarshal(body, &out)
	if !strings.Contains(out["completion"], "SELECT COUNT(*) FROM sales") {
		t.Fatalf("completion = %q", out["completion"])
	}
	if llm.Requests() != 1 {
		t.Fatalf("requests = %d", llm.Requests())
	}
}

func TestText2SQLShapes(t *testing.T) {
	cases := []struct {
		prompt string
		want   string
	}{
		{"Schema: sales(a INT)\nQuestion: how many rows?", "SELECT COUNT(*) FROM sales"},
		{"Schema: sales(a INT)\nQuestion: what is the average amount?", "SELECT AVG(amount) FROM sales"},
		{"Schema: sales(a INT)\nQuestion: total amount sold?", "SELECT SUM(amount) FROM sales"},
		{"Schema: sales(a INT)\nQuestion: count per region?", "SELECT region, COUNT(*) FROM sales GROUP BY region"},
		{"Schema: sales(a INT)\nQuestion: total amount per region?", "SELECT region, SUM(amount) FROM sales GROUP BY region"},
		{"Schema: sales(a INT)\nQuestion: show me stuff", "SELECT * FROM sales LIMIT 10"},
	}
	for _, c := range cases {
		if got := Text2SQL(c.prompt); got != c.want {
			t.Errorf("Text2SQL(%q) = %q, want %q", c.prompt, got, c.want)
		}
	}
}

func TestSQLService(t *testing.T) {
	db := sqlmini.NewDB()
	db.MustExec("CREATE TABLE sales (region TEXT, amount INT)")
	db.MustExec("INSERT INTO sales VALUES ('east', 10), ('west', 30)")
	srv, err := StartSQLService(&SQLService{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	code, body := post(t, srv.URL()+"/query", "SELECT region, amount FROM sales ORDER BY amount DESC")
	if code != 200 {
		t.Fatalf("query = %d: %s", code, body)
	}
	var out struct {
		Columns []string
		Rows    [][]string
	}
	json.Unmarshal(body, &out)
	if len(out.Rows) != 2 || out.Rows[0][0] != "west" || out.Rows[0][1] != "30" {
		t.Fatalf("rows = %v", out.Rows)
	}

	code, body = post(t, srv.URL()+"/query", "SELECT nothing FROM nowhere")
	if code != http.StatusBadRequest {
		t.Fatalf("bad query = %d %s", code, body)
	}
}

;; Rules whose left sides are not calls on distinct variables: a nested
;; call twice, a repeated variable, a constant argument and a nested call.
;; F, G and K stay disabled, so each query that proves does so only
;; because its rule fired.

(defund f (x) (cons x 'nil))
(defund g (x y) (cons x y))
(defund k (x) (cons x x))

;; installed before g-same, so it fires first where both match
(defthm g-ff
  (equal (g (f x) (f x)) (cons (cons x 'nil) (f x)))
  :hints ((:in-theory (enable f g))))

(defthm g-same
  (equal (g x x) (k x))
  :hints ((:in-theory (enable g k))))

(defthm g-3
  (equal (g x '3) (cons x '3))
  :hints ((:in-theory (enable g))))

(defthm f-cons
  (equal (f (cons x y)) (cons (cons x y) 'nil))
  :hints ((:in-theory (enable f))))

(defthm use-g-ff
  (equal (g (f a) (f a)) (cons (cons a 'nil) (f a)))
  :rule-classes nil)

(defthm use-g-same
  (equal (g (car a) (car a)) (k (car a)))
  :rule-classes nil)

(defthm use-g-3
  (equal (g a '3) (cons a '3))
  :rule-classes nil)

(defthm use-f-cons
  (equal (f (cons a b)) (cons (cons a b) 'nil))
  :rule-classes nil)

;; true, but no rule's left side matches (g a b): it fails with steps=0
(defthm g-distinct-stays
  (equal (g a b) (cons a b))
  :rule-classes nil)
